// Package remotectl implements the remote-control baseline (Majumder et
// al., IEEE TC 2021) the UPP paper compares against: a deadlock *avoidance*
// scheme that isolates inter-chiplet packets from intra-chiplet packets
// with injection control.
//
// Mechanics reproduced from the paper's description (Secs. III-B/VI):
//
//   - every boundary router owns four data-packet-sized boundary buffers
//     ("slots"); an inter-chiplet packet may only be injected after it has
//     reserved a slot at its egress boundary router;
//   - the reservation handshake costs a minimum 2-cycle round trip on the
//     permission subnetwork, plus queueing when slots are contended;
//   - at the egress boundary router, inter-chiplet flits are absorbed into
//     the reserved slot instead of competing for mesh buffers, so an
//     inter-chiplet packet can never block an intra-chiplet packet — the
//     isolation that makes integration-induced deadlocks impossible;
//   - inter-chiplet packets crossing a boundary router pay one extra
//     pipeline cycle (VC allocation runs as a separate stage there).
//
// The three numbers above are the paper's evaluation setup and hold for
// every run. Routing is identical to UPP's (static binding, full path
// diversity), so the performance difference against UPP is purely the
// injection-control latency — matching the paper's analysis.
package remotectl

import (
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

const (
	// boundarySlots is the number of data-packet-sized boundary buffers
	// per boundary router (the paper evaluates 4).
	boundarySlots = 4
	// minRoundTrip is the minimum reservation round trip in cycles. The
	// actual round trip is 2 x the source's depth in the boundary router's
	// hard-wired permission tree (Fig. 2(b)), floored at this.
	minRoundTrip = 2
	// crossingDelay is the extra pipeline latency charged to inter-chiplet
	// flits at boundary routers.
	crossingDelay = 1
)

// slot buffers one absorbed inter-chiplet packet at a boundary router.
type slot struct {
	pkt   *message.Packet
	flits []message.Flit
	next  int // next flit index to send down
	outVC int8
}

// request is a pending slot reservation.
type request struct {
	pkt   *message.Packet
	ready sim.Cycle // earliest grant completion (request time + RTT)
}

// boundary is the per-boundary-router state.
type boundary struct {
	node topology.NodeID
	// treeDepth is each chiplet router's hop depth in this boundary's
	// hard-wired permission tree (BFS over the chiplet mesh, Fig. 2(b));
	// the reservation round trip is 2 x depth.
	treeDepth map[topology.NodeID]int
	free      int
	reqQ      []request
	granted   map[uint64]bool
	// absorbing maps packet ID to its slot once flits start arriving.
	absorbing map[uint64]*slot
	// sendQ holds slots in absorption order per VNet (wormhole ordering on
	// the down link).
	sendQ  [message.NumVNets][]*slot
	vnetRR int
	// held tracks the VCs we put on Hold last cycle so they can be
	// recomputed.
	held []heldVC
}

type heldVC struct {
	port topology.PortID
	vc   int
}

// Scheme plugs remote control into the network.
type Scheme struct {
	network.BaseScheme
	net *network.Network

	boundaries map[topology.NodeID]*boundary
	// requested remembers packets whose reservation request is queued.
	requested map[uint64]bool
}

// New returns a remote-control scheme.
func New() *Scheme {
	return &Scheme{requested: make(map[uint64]bool)}
}

// Name implements network.Scheme.
func (s *Scheme) Name() string { return "remote_control" }

// Attach implements network.Scheme. Remote control installs its injection
// control and the extra boundary-crossing cycle the network charges to
// inter-chiplet flits at boundary routers.
func (s *Scheme) Attach(n *network.Network) {
	s.net = n
	n.SetInjectionGate(s.canStartPacket)
	n.SetCrossingDelay(crossingDelay)
	s.boundaries = make(map[topology.NodeID]*boundary)
	for _, ch := range n.Topo.Chiplets {
		for _, b := range ch.Boundary {
			s.boundaries[b] = &boundary{
				node:      b,
				treeDepth: permissionTree(n.Topo, b, ch.Routers),
				free:      boundarySlots,
				granted:   make(map[uint64]bool),
				absorbing: make(map[uint64]*slot),
			}
		}
	}
}

// permissionTree computes each chiplet router's depth in the BFS tree the
// permission subnetwork is hard-wired as, rooted at the boundary router.
func permissionTree(t *topology.Topology, root topology.NodeID, routers []topology.NodeID) map[topology.NodeID]int {
	inLayer := make(map[topology.NodeID]bool, len(routers))
	for _, r := range routers {
		inLayer[r] = true
	}
	depth := map[topology.NodeID]int{root: 0}
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := t.Node(cur)
		for pi := 1; pi < len(n.Ports); pi++ {
			nb := n.Ports[pi].Neighbor
			if !inLayer[nb] || n.Ports[pi].Link.Vertical {
				continue
			}
			if _, ok := depth[nb]; !ok {
				depth[nb] = depth[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return depth
}

// canStartPacket is the injection control: an inter-chiplet packet (one
// that leaves its source chiplet) starts only once it holds a boundary slot.
func (s *Scheme) canStartPacket(p *message.Packet, cycle sim.Cycle) bool {
	if p.EgressBoundary == topology.InvalidNode {
		return true
	}
	b := s.boundaries[p.EgressBoundary]
	if b.granted[p.ID] {
		return true
	}
	if !s.requested[p.ID] {
		s.requested[p.ID] = true
		rtt := max(2*b.treeDepth[p.Src], minRoundTrip)
		b.reqQ = append(b.reqQ, request{pkt: p, ready: cycle + sim.Cycle(rtt)})
	}
	s.net.Stats.InjectionHolds++
	return false
}

// StartOfCycle implements network.Scheme: grant reservations, hold and
// absorb egress packets, and stream slots down the vertical links.
func (s *Scheme) StartOfCycle(cycle sim.Cycle) {
	for _, ch := range s.net.Topo.Chiplets {
		for _, bn := range ch.Boundary {
			b := s.boundaries[bn]
			if len(b.reqQ) == 0 && len(b.held) == 0 && len(b.absorbing) == 0 &&
				s.net.Router(bn).Buffered() == 0 {
				// Fully quiescent boundary: nothing to grant (reqQ empty),
				// no holds to refresh, nothing absorbed to stream down
				// (sendQ is non-empty only while absorbing is), and an
				// empty router can hold no egress flit to hold or absorb.
				continue
			}
			s.grantRequests(b, cycle)
			s.refreshHolds(b, cycle)
			s.absorb(b, cycle)
			s.sendDown(b, cycle)
		}
	}
}

func (s *Scheme) grantRequests(b *boundary, cycle sim.Cycle) {
	for len(b.reqQ) > 0 && b.free > 0 && b.reqQ[0].ready <= cycle {
		req := b.reqQ[0]
		b.reqQ = b.reqQ[1:]
		b.free--
		b.granted[req.pkt.ID] = true
		delete(s.requested, req.pkt.ID)
	}
}

// refreshHolds marks every VC whose front flit belongs to an egress packet
// of this boundary: those packets leave through the boundary buffer, never
// through switch allocation.
func (s *Scheme) refreshHolds(b *boundary, _ sim.Cycle) {
	r := s.net.Router(b.node)
	for _, h := range b.held {
		r.VCAt(h.port, h.vc).Hold = false
	}
	b.held = b.held[:0]
	nvc := s.net.Cfg.Router.NumVCs()
	for pi := 0; pi < len(r.In); pi++ {
		for vi := 0; vi < nvc; vi++ {
			vc := r.VCAt(topology.PortID(pi), vi)
			f, _, ok := vc.Front()
			if !ok || !s.isEgressHere(b, f.Pkt) {
				continue
			}
			vc.Hold = true
			b.held = append(b.held, heldVC{topology.PortID(pi), vi})
		}
	}
}

func (s *Scheme) isEgressHere(b *boundary, p *message.Packet) bool {
	return p.EgressBoundary == b.node
}

// absorb moves egress flits from input VCs into their boundary slots —
// one flit per input port per cycle, claiming the input like a crossbar
// pass-through.
func (s *Scheme) absorb(b *boundary, cycle sim.Cycle) {
	r := s.net.Router(b.node)
	nvc := s.net.Cfg.Router.NumVCs()
	for pi := 0; pi < len(r.In); pi++ {
		port := topology.PortID(pi)
		for vi := 0; vi < nvc; vi++ {
			vc := r.VCAt(port, vi)
			f, ok := vc.FrontReady(cycle)
			if !ok || !s.isEgressHere(b, f.Pkt) {
				continue
			}
			if !r.ClaimInput(port, cycle) {
				break
			}
			f = r.PopFront(port, vi, cycle)
			sl := b.absorbing[f.Pkt.ID]
			if sl == nil {
				sl = &slot{pkt: f.Pkt, outVC: -1}
				b.absorbing[f.Pkt.ID] = sl
				b.sendQ[f.Pkt.VNet] = append(b.sendQ[f.Pkt.VNet], sl)
			}
			sl.flits = append(sl.flits, f)
			break // one flit per input port per cycle
		}
	}
}

// sendDown streams one flit per cycle from the boundary buffers onto the
// down vertical link, keeping wormhole ordering per VNet.
func (s *Scheme) sendDown(b *boundary, cycle sim.Cycle) {
	r := s.net.Router(b.node)
	down := r.Node.PortTo(topology.Down)
	if down == topology.InvalidPort || r.OutputClaimed(down, cycle) {
		return
	}
	for k := 0; k < message.NumVNets; k++ {
		v := (b.vnetRR + 1 + k) % message.NumVNets
		if len(b.sendQ[v]) == 0 {
			continue
		}
		sl := b.sendQ[v][0]
		if sl.next >= len(sl.flits) {
			continue // waiting for more flits to be absorbed
		}
		if sl.outVC < 0 {
			sl.outVC = r.AllocateOutputVC(down, message.VNet(v))
			if sl.outVC < 0 {
				continue
			}
		}
		if !r.CreditsAvailable(down, sl.outVC) {
			continue
		}
		f := sl.flits[sl.next]
		sl.next++
		r.ClaimOutput(down, cycle)
		r.SendOnOutput(down, sl.outVC, f, cycle)
		b.vnetRR = v
		if f.IsTail() {
			b.sendQ[v] = b.sendQ[v][1:]
			delete(b.absorbing, sl.pkt.ID)
			delete(b.granted, sl.pkt.ID)
			b.free++
		}
		return
	}
}

// SlotsFree reports the free slot count at boundary b (tests).
func (s *Scheme) SlotsFree(b topology.NodeID) int { return s.boundaries[b].free }
