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
	"math/bits"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
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

// slot buffers one absorbed inter-chiplet packet at a boundary router. It
// is live while pkt is set: from the packet's first absorbed flit to its
// tail's departure down the vertical link. The flit buffer is reused.
type slot struct {
	pkt   *message.Packet
	id    uint64 // pkt's ID, which a restore knows before pkt's body
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
	r    *router.Router
	down topology.PortID // the down vertical port, or InvalidPort
	ch   *topology.Chiplet
	// treeDepth is each chiplet router's depth (row-major, 0 off the tree)
	// in this boundary's permission tree, Fig. 2(b): the round trip is 2x.
	treeDepth []int32
	// reqQ holds the queued reservation requests, oldest first.
	reqQ []request
	// granted holds the IDs of the packets holding a slot, ascending;
	// with the free slots they always number boundarySlots.
	granted []uint64
	slots   [boundarySlots]slot
	live    int // live slots
	// sendQ holds the live slots' indices in absorption order per VNet
	// (wormhole ordering on the down link).
	sendQ  [message.NumVNets][]int8
	vnetRR int
	// held lists the VCs the last walk put on Hold.
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
	// boundaries are in Attach's order (chiplet, then boundary), and
	// index[node] is a boundary router's position in it.
	boundaries []boundary
	index      []int32
	// pending is, per (source, VNet), the ID of the packet whose request is
	// queued, or 0: a gated packet stays at the front of its NI's queue on
	// its VNet until it is granted, so a source has at most one per VNet.
	pending []uint64
}

// New returns a remote-control scheme.
func New() *Scheme { return &Scheme{} }

// Name implements network.Scheme.
func (s *Scheme) Name() string { return "remote_control" }

// Attach implements network.Scheme. Remote control installs its injection
// control and the extra boundary-crossing cycle the network charges to
// inter-chiplet flits at boundary routers.
func (s *Scheme) Attach(n *network.Network) {
	s.net = n
	n.SetInjectionGate(s.canStartPacket)
	n.SetCrossingDelay(crossingDelay)
	s.index = make([]int32, n.Topo.NumNodes())
	s.pending = make([]uint64, n.Topo.NumNodes()*message.NumVNets)
	for ci := range n.Topo.Chiplets {
		ch := &n.Topo.Chiplets[ci]
		for _, bn := range ch.Boundary {
			s.index[bn] = int32(len(s.boundaries))
			b := boundary{node: bn, r: n.Router(bn), down: n.Topo.Node(bn).PortTo(topology.Down), ch: ch,
				treeDepth: permissionTree(n.Topo, ch, bn), granted: make([]uint64, 0, boundarySlots)}
			for v := range b.sendQ {
				b.sendQ[v] = make([]int8, 0, boundarySlots)
			}
			for k := range b.slots {
				b.slots[k].flits = make([]message.Flit, 0, message.DataPacketFlits)
			}
			s.boundaries = append(s.boundaries, b)
		}
	}
}

// permissionTree computes each chiplet router's depth in the BFS tree the
// permission subnetwork is hard-wired as, rooted at the boundary router.
func permissionTree(t *topology.Topology, ch *topology.Chiplet, root topology.NodeID) []int32 {
	depth := make([]int32, len(ch.Routers))
	at := func(id topology.NodeID) *int32 { return &depth[t.Node(id).Y*ch.Width+t.Node(id).X] }
	for queue := []topology.NodeID{root}; len(queue) > 0; queue = queue[1:] {
		n := t.Node(queue[0])
		for _, pt := range n.Ports[1:] {
			if t.Node(pt.Neighbor).Chiplet != ch.Index || pt.Link.Vertical || pt.Neighbor == root || *at(pt.Neighbor) > 0 {
				continue
			}
			*at(pt.Neighbor) = *at(n.ID) + 1
			queue = append(queue, pt.Neighbor)
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
	b := &s.boundaries[s.index[p.EgressBoundary]]
	if slices.Contains(b.granted, p.ID) {
		return true
	}
	if pending := &s.pending[int(p.Src)*message.NumVNets+int(p.VNet)]; *pending != p.ID {
		*pending = p.ID
		rtt := sim.Cycle(minRoundTrip)
		if src := s.net.Topo.Node(p.Src); src.Chiplet == b.ch.Index {
			rtt = max(2*sim.Cycle(b.treeDepth[src.Y*b.ch.Width+src.X]), minRoundTrip)
		}
		b.reqQ = append(b.reqQ, request{pkt: p, ready: cycle + rtt})
	}
	s.net.Stats.InjectionHolds++
	return false
}

// StartOfCycle implements network.Scheme: at each boundary, grant
// reservations, hold and absorb egress packets, and stream live slots down
// the vertical link. Each step runs only when it has something to do.
func (s *Scheme) StartOfCycle(cycle sim.Cycle) {
	for i := range s.boundaries {
		b := &s.boundaries[i]
		if len(b.reqQ) > 0 {
			s.grantRequests(b, cycle)
		}
		if len(b.held) > 0 || b.r.OccupiedPorts() != 0 {
			b.holdAndAbsorb(cycle)
		}
		if b.live > 0 {
			b.sendDown(cycle)
		}
	}
}

func (s *Scheme) grantRequests(b *boundary, cycle sim.Cycle) {
	for len(b.reqQ) > 0 && len(b.granted) < boundarySlots && b.reqQ[0].ready <= cycle {
		p := b.reqQ[0].pkt
		b.reqQ = slices.Delete(b.reqQ, 0, 1)
		i, _ := slices.BinarySearch(b.granted, p.ID)
		b.granted = slices.Insert(b.granted, i, p.ID)
		s.pending[int(p.Src)*message.NumVNets+int(p.VNet)] = 0
	}
}

// holdAndAbsorb walks the occupied input VCs once. A VC whose front flit
// belongs to an egress packet of this boundary is held: that packet leaves
// through its slot, never through switch allocation. Per input port, the
// first held VC whose front flit is ready moves it into the slot, claiming
// the input like a crossbar pass-through. Holds are set from the front
// flits before any pop and stay until the next walk.
func (b *boundary) holdAndAbsorb(cycle sim.Cycle) {
	r := b.r
	for _, h := range b.held {
		r.VCAt(h.port, h.vc).Hold = false
	}
	b.held = b.held[:0]
	for ports := r.OccupiedPorts(); ports != 0; ports &= ports - 1 {
		port := topology.PortID(bits.TrailingZeros32(ports))
		tried := false
		for vcs := r.OccupiedVCs(port); vcs != 0; vcs &= vcs - 1 {
			vi := bits.TrailingZeros64(vcs)
			vc := r.VCAt(port, vi)
			f, ready, _ := vc.Front()
			if f.Pkt.EgressBoundary != b.node {
				continue
			}
			vc.Hold = true
			b.held = append(b.held, heldVC{port, vi})
			if tried || ready > cycle {
				continue
			}
			if tried = true; r.ClaimInput(port, cycle) {
				b.absorb(r.PopFront(port, vi, cycle))
			}
		}
	}
}

// absorb appends f to its packet's live slot, or makes a free slot live
// for it behind its VNet's earlier slots (its grant kept one free).
func (b *boundary) absorb(f message.Flit) {
	free := -1
	for i := range b.slots {
		if sl := &b.slots[i]; sl.pkt != nil && sl.id == f.Pkt.ID {
			sl.flits = append(sl.flits, f)
			return
		} else if sl.pkt == nil && free < 0 {
			free = i
		}
	}
	sl := &b.slots[free]
	*sl = slot{pkt: f.Pkt, id: f.Pkt.ID, flits: append(sl.flits[:0], f), outVC: -1}
	b.sendQ[f.Pkt.VNet] = append(b.sendQ[f.Pkt.VNet], int8(free))
	b.live++
}

// sendDown streams one flit per cycle from the boundary buffers onto the
// down vertical link, keeping wormhole ordering per VNet.
func (b *boundary) sendDown(cycle sim.Cycle) {
	r := b.r
	if b.down == topology.InvalidPort || r.OutputClaimed(b.down, cycle) {
		return
	}
	for k := 0; k < message.NumVNets; k++ {
		v := (b.vnetRR + 1 + k) % message.NumVNets
		if len(b.sendQ[v]) == 0 {
			continue
		}
		sl := &b.slots[b.sendQ[v][0]]
		if sl.next >= len(sl.flits) {
			continue // waiting for more flits to be absorbed
		}
		if sl.outVC < 0 {
			sl.outVC = r.AllocateOutputVC(b.down, message.VNet(v))
		}
		if sl.outVC < 0 || !r.CreditsAvailable(b.down, sl.outVC) {
			continue
		}
		f := sl.flits[sl.next]
		sl.next++
		r.ClaimOutput(b.down, cycle)
		r.SendOnOutput(b.down, sl.outVC, f, cycle)
		b.vnetRR = v
		if f.IsTail() {
			b.sendQ[v] = slices.Delete(b.sendQ[v], 0, 1)
			i, _ := slices.BinarySearch(b.granted, sl.id)
			b.granted = slices.Delete(b.granted, i, i+1)
			sl.pkt = nil
			b.live--
		}
		return
	}
}

// Load counts, over every boundary, the reservation requests queued, the
// grants held and the live slots (tests).
func (s *Scheme) Load() (queued, granted, live int) {
	for i := range s.boundaries {
		b := &s.boundaries[i]
		queued += len(b.reqQ)
		granted += len(b.granted)
		live += b.live
	}
	return queued, granted, live
}
