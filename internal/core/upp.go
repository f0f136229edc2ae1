// Package core implements UPP — Upward Packet Popup — the paper's
// deadlock recovery framework for modular chiplet-based systems.
//
// UPP rests on one observation (Sec. IV-A): every integration-induced
// deadlock contains an upward packet, permanently stalled in an interposer
// router while trying to move up a vertical link into a chiplet. UPP
// therefore:
//
//  1. detects deadlocks with a per-VNet timeout counter on each interposer
//     router's up output port and selects one stalled upward packet per
//     VNet with a round-robin arbiter (Sec. V-A);
//  2. reserves an ejection-queue entry at the destination NI with a
//     lightweight three-signal protocol — UPP_req / UPP_ack / UPP_stop —
//     whose signals travel the normal router datapath in two dedicated
//     32-bit buffers per chiplet router, with priority over normal flits
//     (Sec. V-B);
//  3. pops the packet up: the UPP_req installed a circuit through the
//     chiplet, and the packet's flits bypass buffers along it, taking only
//     the switch-traversal stage per hop with absolute crossbar priority
//     (Sec. V-C).
//
// False positives (congestion mistaken for deadlock) are harmless: the
// interposer router cancels with UPP_stop if the packet proceeds normally
// before the ack returns, and a popup of a merely-congested packet just
// uses bandwidth that was idle anyway (Sec. V-A).
//
// Concurrent popups of the same VNet into the same chiplet are serialized
// with a per-(chiplet, VNet) token — the interposer-router coordination
// option of Sec. V-B5; popups of different VNets proceed concurrently.
package core

import (
	"fmt"
	"strings"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Config parameterizes UPP.
type Config struct {
	// Threshold is the timeout in cycles before an idle-but-wanted up port
	// is declared deadlocked (Table II: 20; Fig. 13 sweeps 20/100/1000).
	Threshold int
	// SignalGap is the minimum spacing between consecutive protocol
	// signals sent by one interposer router
	// (Size_of_Data_Packet + 1, Sec. V-B5).
	SignalGap int
	// Binding names the egress-boundary selection (routing.BindingPolicy:
	// "" = the paper's static closest-boundary binding). The ablation
	// experiments swap in the alternatives of Sec. V-D's design discussion.
	Binding string
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{Threshold: 20, SignalGap: message.DataPacketFlits + 1}
}

// Signal hardening (DESIGN.md §10). Under runtime fault injection a
// dropped signal would otherwise wedge recovery forever, so while a fault
// injector is attached every outstanding protocol signal has a per-popup
// watchdog: a popup whose req (or a cancelled popup whose stop or
// discarded ack) has produced no progress for signalTimeout cycles
// re-sends with exponential backoff, and after maxSignalRetries attempts
// the popup is force-retired — its path swept clean, its reservation
// recycled — and the still-stalled packet falls back to normal timeout
// re-detection. Without an injector the machinery is off and the healthy
// path is byte-identical to a build without it.
const (
	signalTimeout    = 256
	maxSignalRetries = 3
)

// hardened reports whether the signal watchdog runs: exactly when the
// network has a fault injector attached.
func (u *UPP) hardened() bool { return u.net.FaultInjector() != nil }

// stage of a popup instance.
type popupStage uint8

const (
	// stageReq: packet selected; UPP_req queued/in flight; waiting for the
	// ack.
	stageReq popupStage = iota
	// stageDrain: ack received at the origin; the packet is being popped
	// up through the circuit.
	stageDrain
)

// hop is one step of a popup's path from the origin interposer router
// (index 0) to the destination chiplet router (last index).
type hop struct {
	node    topology.NodeID
	inPort  topology.PortID // port the UPP_req arrives on (invalid at origin)
	outPort topology.PortID // port it leaves by (Local at the destination)
}

// popup is one recovery instance.
//
// Packet ownership: the popup does not own its packet — the pool
// releases it through the destination NI once the PE consumes it, which
// for a cancelled popup can happen while the popup still waits for its
// stop/ack signals to sweep the path. The popup therefore snapshots
// everything it needs after cancellation (dst, dstChiplet, pktID) at
// creation time, and all identity checks against in-flight flits go
// through holds(), which pairs the pointer comparison with a generation
// check (pointer equality alone is ABA-unsafe once packets recycle).
type popup struct {
	id     uint64
	vnet   message.VNet
	origin topology.NodeID
	pkt    *message.Packet
	// pktGen is the packet's pool generation at selection time; dst,
	// dstChiplet and pktID snapshot the fields used on paths that may
	// run after the packet was consumed and recycled.
	pktGen     uint32
	dst        topology.NodeID
	dstChiplet int
	pktID      uint64
	// Tracked VC at the origin interposer router.
	port     topology.PortID
	vcIdx    int
	frontSeq int32
	path     []hop

	stage      popupStage
	drainStart sim.Cycle

	reqSent        bool
	cancelled      bool
	stopPending    bool
	stopDelivered  bool
	ackLaunched    bool
	ackDone        bool
	tailLeftOrigin bool

	// Signal-retry state (hardened only; all zero otherwise).
	// deadline is the cycle at which the outstanding signal phase is
	// declared lost (0 = unarmed); retries counts re-sends in the current
	// phase; resendReq re-queues a req without clearing reqSent
	// (checkProceeded's remote-cleanup decision keys on whether any req
	// ever left); resRequested tracks whether the destination NI holds
	// reservation state — waiter or granted entry — for this popup.
	deadline     sim.Cycle
	retries      uint8
	resendReq    bool
	resRequested bool
}

// holds reports whether q is exactly the incarnation of the popup's
// packet that was selected — same pointer and same pool generation. All
// flit-identity checks use it instead of bare pointer equality.
func (p *popup) holds(q *message.Packet) bool {
	return q == p.pkt && q.Generation() == p.pktGen
}

// livePkt returns the popup's packet for paths that are only reached
// while the packet is provably still in flight (e.g. drain, completion
// at ejection), asserting the pool has not recycled it out from under
// the popup. Always-on: these are cold recovery paths.
func (p *popup) livePkt() *message.Packet {
	if p.pkt.Generation() != p.pktGen || p.pkt.Released() {
		panic(fmt.Sprintf("upp: popup %d references recycled packet %d (stale-generation access)", p.id, p.pktID))
	}
	return p.pkt
}

// circuitEntry is a chiplet router's per-VNet crossbar connection record,
// installed by a passing UPP_req and used by the ack's reverse path and
// the upward flits (Fig. 6's chiplet-router table).
type circuitEntry struct {
	active  bool
	popupID uint64
	inPort  topology.PortID
	outPort topology.PortID
	// vcIdx is the VC of inPort observed to hold the popup packet's flits
	// (-1 until seen); released marks that the VC was force-released after
	// the packet diverted past it.
	vcIdx    int8
	released bool
}

// sigKind distinguishes latch occupants.
type sigKind uint8

const (
	sigReq sigKind = iota
	sigStop
)

// reqStopLatch is the single-signal UPP_req/UPP_stop buffer of a chiplet
// router (one 32-bit buffer, Sec. V-B2).
type reqStopLatch struct {
	valid    bool
	reserved bool // an in-flight signal will land here
	kind     sigKind
	popupID  uint64
	hopIdx   int
	ready    sim.Cycle
}

// ackEntry is one UPP_ack in a chiplet router's ack buffer. The buffer
// holds up to one ack per VNet (the paper merges concurrent acks by ORing
// their one-hot VNet fields into the same 32-bit buffer).
type ackEntry struct {
	popupID uint64
	hopIdx  int
	ready   sim.Cycle
}

// flitLatch is the per-VNet circuit-switching latch a popup flit occupies
// between switch traversals.
type flitLatch struct {
	valid    bool
	reserved bool
	flit     message.Flit
	ready    sim.Cycle
}

// nodeState is the per-router UPP state (both roles; unused fields stay
// zero).
type nodeState struct {
	// Interposer-router side (Fig. 6 middle).
	counters   [message.NumVNets]int32
	entry      [message.NumVNets]*popup
	rr         [message.NumVNets]int
	nextSignal sim.Cycle

	// Chiplet-router side (Fig. 6 top).
	circuit    [message.NumVNets]circuitEntry
	reqStop    reqStopLatch
	acks       []ackEntry
	ackRes     int // reserved incoming acks
	popupLatch [message.NumVNets]flitLatch
}

// candidate is a host VNet whose timeout counter reached the threshold
// this cycle: the stalled upward head a popup would select.
type candidate struct {
	id    topology.NodeID
	vnet  message.VNet
	port  topology.PortID
	vcIdx int
	f     message.Flit
}

// UPP is the scheme. Create with New and pass to network.New.
type UPP struct {
	network.BaseScheme
	cfg    Config
	policy routing.BoundaryPolicy // cfg.Binding resolved

	net   *network.Network
	nodes []nodeState
	// hosts is the bitset of interposer routers with an Up port: the only
	// ones detection visits and whose timeout counters ever move.
	hosts  []uint64
	tokens [][message.NumVNets]uint64 // holder popup ID per (chiplet, vnet); 0 = free
	popups map[uint64]*popup
	nextID uint64
	// sorted is sortedPopups' reusable scratch buffer (recovery cycles
	// run several passes over the active set; reusing the slice keeps
	// them allocation-light).
	sorted []*popup
	// cands[b] lists the detection scan's candidates of the network's
	// block b (Network.ForEachBlock) in ascending NodeID order; scanBlock
	// is scanHosts as a func value, made once in Attach so that handing
	// it to ForEachBlock every cycle allocates nothing.
	cands     [][]candidate
	scanBlock func(b int, awake []int32)
}

// New returns a UPP scheme instance. It panics on a Binding that
// routing.BindingPolicy does not know; callers that take the name from
// outside check it there first.
func New(cfg Config) *UPP {
	policy, err := routing.BindingPolicy(cfg.Binding)
	if err != nil {
		panic(err)
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 20
	}
	if cfg.SignalGap <= 0 {
		cfg.SignalGap = message.DataPacketFlits + 1
	}
	return &UPP{cfg: cfg, policy: policy, popups: make(map[uint64]*popup)}
}

// Name implements network.Scheme.
func (u *UPP) Name() string { return "upp" }

// Config returns the effective configuration after New's defaulting
// (threshold sweeps and configuration-propagation tests).
func (u *UPP) Config() Config { return u.cfg }

// Attach implements network.Scheme. UPP installs its boundary policy: the
// static binding unless an ablation binding was configured. It panics on
// a system whose UPP_req/UPP_stop, with the destination and input-VC
// fields widened to its node and VC counts, would not fit the paper's
// 32-bit signal buffer (Fig. 4).
func (u *UPP) Attach(n *network.Network) {
	if w := message.ReqStopBits(n.Topo.NumNodes(), n.Cfg.Router.NumVCs()); w > message.SignalBufferBits {
		panic(fmt.Sprintf("upp: %d-bit UPP_req/UPP_stop overflows the %d-bit signal buffer (Fig. 4)", w, message.SignalBufferBits))
	}
	u.net = n
	u.cands = make([][]candidate, n.NumBlocks())
	u.scanBlock = u.scanHosts
	n.SetBoundaryPolicy(u.policy)
	u.nodes = make([]nodeState, n.Topo.NumNodes())
	u.tokens = make([][message.NumVNets]uint64, len(n.Topo.Chiplets))
	u.hosts = make([]uint64, (n.Topo.NumNodes()+63)/64)
	for _, id := range n.Topo.Interposer {
		if n.Topo.Node(id).PortTo(topology.Up) != topology.InvalidPort {
			u.hosts[id>>6] |= 1 << (id & 63)
		}
	}
	for i := range u.nodes {
		ns := &u.nodes[i]
		for v := range ns.circuit {
			ns.circuit[v].vcIdx = -1
		}
	}
}

// ActivePopups returns the number of in-flight popup instances (tests).
func (u *UPP) ActivePopups() int { return len(u.popups) }

// PopupPathsAvoid reports that no live popup's circuit path crosses link
// l in either direction. The reconfiguration engine polls it before
// cutting a fenced link: popup circuits bypass switch allocation
// (SendDirect claims, not VC grants), so the router-level PortQuiet
// check alone cannot prove the link idle.
func (u *UPP) PopupPathsAvoid(l *topology.Link) bool {
	for _, p := range u.popups {
		for i := range p.path {
			h := &p.path[i]
			if (h.node == l.A && h.outPort == l.APort) || (h.node == l.B && h.outPort == l.BPort) {
				return false
			}
		}
	}
	return true
}

// StartOfCycle implements network.Scheme: popup flits move first (highest
// crossbar priority, Sec. V-C1), then protocol signals, then pending
// req/stop transmissions from interposer routers.
func (u *UPP) StartOfCycle(cycle sim.Cycle) {
	if len(u.popups) == 0 {
		// No live popup means no signal, latch or ack can be in flight
		// anywhere (they all belong to a popup that is only deleted after
		// its path is swept clean), so the signal movers below would walk
		// every node and find nothing.
		return
	}
	for _, p := range u.sortedPopups() {
		if p.stage == stageDrain {
			u.drain(p, cycle)
		}
	}
	u.moveSignals(cycle)
	u.sendOriginSignals(cycle)
}

// EndOfCycle implements network.Scheme: timeout counters, upward-packet
// selection, false-positive cancellation and (when enabled) the
// signal-retry watchdog.
func (u *UPP) EndOfCycle(cycle sim.Cycle) {
	u.detect(cycle)
	u.checkProceeded(cycle)
	if u.hardened() {
		u.checkSignalTimeouts(cycle)
	}
}

// sortedPopups returns active popups in deterministic (id) order. The
// returned slice is the scheme's scratch buffer — valid until the next
// call, which every caller satisfies (they iterate it immediately).
func (u *UPP) sortedPopups() []*popup {
	if len(u.popups) == 0 {
		return nil
	}
	prev := len(u.sorted)
	ps := u.sorted[:0]
	for _, p := range u.popups {
		ps = append(ps, p)
	}
	// Zero any vacated tail so the scratch buffer does not retain
	// retired popups (and through them, packet pointers).
	for i := len(ps); i < prev; i++ {
		u.sorted[i] = nil
	}
	// Insertion sort: the set is tiny.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j-1].id > ps[j].id; j-- {
			ps[j-1], ps[j] = ps[j], ps[j-1]
		}
	}
	u.sorted = ps
	return ps
}

// --- Detection (Sec. V-A) ---------------------------------------------------

// host reports whether router id can hold an upward packet.
func (u *UPP) host(id topology.NodeID) bool { return u.hosts[id>>6]&(1<<(id&63)) != 0 }

// detect runs the timeout counters of the host routers: the network's
// awake-router list (ascending NodeIDs) filtered down to hosts. A retired
// router has no buffered flits — so no stalled upward packet — and its
// counters are stale, not reset, until a flit wakes it: the flit is not
// ready before the next cycle, so that cycle's scan finds no stalled head
// and zeroes every counter without a popup, as the oracle's scan of the
// empty router did (DESIGN.md §7). Under the oracle the list is every
// router. The walk costs O(awake) instead of O(interposer) per cycle on
// mostly-idle large systems. It is two passes. The scan reads only each
// host's own router and writes only its counters and its block's list of
// hosts past the threshold, so it runs per block on the block's owner
// (Network.ForEachBlock). The decisions — token claims and popup creation
// — then run over those lists in ascending NodeID order, which keeps them
// bit-identical across kernels (a popup started at one host installs
// circuit entries at later ones). Nothing a decision changes is read by a
// scan: a host's VC holds, round-robin pointers, counters and popup
// entries move only with its own scan and decisions.
func (u *UPP) detect(cycle sim.Cycle) {
	u.net.ForEachBlock(u.scanBlock)
	for b, cands := range u.cands {
		if len(cands) == 0 {
			continue
		}
		for _, c := range cands {
			// Deadlock declared: serialize with the per-(chiplet, VNet)
			// popup token before selecting.
			chiplet := u.net.Topo.Node(c.f.Pkt.Dst).Chiplet
			if u.tokens[chiplet][c.vnet] != 0 {
				continue // token busy; retry next cycle
			}
			u.startPopup(u.net.Router(c.id), &u.nodes[c.id], c.vnet, c.port, c.vcIdx, c.f, cycle)
		}
		clear(cands) // no packet pointer kept
		u.cands[b] = cands[:0]
	}
}

// scanHosts advances the timeout counters of the awake hosts of block b
// (Network.ForEachBlock).
func (u *UPP) scanHosts(b int, awake []int32) {
	cycle := u.net.Cycle()
	for _, id32 := range awake {
		if id := topology.NodeID(id32); u.host(id) {
			u.scanAt(b, id, cycle)
		}
	}
}

// scanAt advances the timeout counters of one host router and lists its
// VNets whose counter reached the threshold in u.cands[b].
func (u *UPP) scanAt(b int, id topology.NodeID, cycle sim.Cycle) {
	r := u.net.Router(id)
	ns := &u.nodes[id]
	upMask := r.UpSentMask(cycle)
	for v := 0; v < message.NumVNets; v++ {
		vnet := message.VNet(v)
		if ns.entry[v] != nil {
			// One popup per VNet per interposer router (Sec. V-A);
			// counting pauses while one is in flight.
			continue
		}
		if upMask&(1<<uint(v)) != 0 {
			ns.counters[v] = 0
			continue
		}
		port, vcIdx, f := r.StalledHead(vnet, ns.rr[v], cycle, false)
		if port == topology.InvalidPort && u.net.TransitionActive() {
			// During a routing-epoch transition, old- and new-epoch
			// traffic coexist and an incompatible pair can form a
			// dependency cycle entirely within the interposer mesh — a
			// shape the steady-state detector never sees, because
			// up*/down* keeps each layer acyclic on its own and any
			// deadlock must then involve an upward-stalled packet.
			// Widen detection to mesh-stalled packets while the
			// transition lasts (DESIGN.md §15): the popup mechanics are
			// path-agnostic, so recovery works unchanged.
			port, vcIdx, f = r.StalledHead(vnet, ns.rr[v], cycle, true)
		}
		if port == topology.InvalidPort {
			ns.counters[v] = 0
			continue
		}
		ns.counters[v]++
		if int(ns.counters[v]) >= u.cfg.Threshold {
			u.cands[b] = append(u.cands[b], candidate{id: id, vnet: vnet, port: port, vcIdx: vcIdx, f: f})
		}
	}
}

// startPopup creates a popup instance for the selected upward packet and
// queues its UPP_req. It may decline (returning without creating one)
// when the packet's route is momentarily unsettled — the counter stays
// above threshold and selection retries next cycle.
func (u *UPP) startPopup(r *router.Router, ns *nodeState, vnet message.VNet, port topology.PortID, vcIdx int, f message.Flit, cycle sim.Cycle) {
	path, settled, err := u.chasePath(r, port, vcIdx, f.Pkt)
	if err != nil {
		panic(fmt.Sprintf("upp: path for popup of pkt %d: %v", f.Pkt.ID, err))
	}
	if !settled {
		return
	}
	// A live popup installs one circuit entry per (node, VNet): a second
	// same-VNet popup crossing any of its nodes would corrupt it. Normal
	// upward popups never overlap (the per-(chiplet, VNet) token covers
	// the chiplet hops and the origin is per-router), but transition-time
	// mesh popups traverse interposer mesh hops that can cross another
	// popup's path. Decline and retry next cycle — the counter stays
	// above threshold, and the blocking popup completes in bounded time.
	for _, q := range u.popups {
		if q.vnet != vnet {
			continue
		}
		for i := range q.path {
			for j := range path {
				if q.path[i].node == path[j].node {
					return
				}
			}
		}
	}
	u.nextID++
	p := &popup{
		id:         u.nextID,
		vnet:       vnet,
		origin:     r.ID,
		pkt:        f.Pkt,
		pktGen:     f.Pkt.Generation(),
		dst:        f.Pkt.Dst,
		dstChiplet: u.net.Topo.Node(f.Pkt.Dst).Chiplet,
		pktID:      f.Pkt.ID,
		port:       port,
		vcIdx:      vcIdx,
		frontSeq:   f.Seq,
		path:       path,
		stage:      stageReq,
	}
	ns.entry[vnet] = p
	ns.rr[vnet] = int(port)*r.Cfg.NumVCs() + vcIdx
	chiplet := u.net.Topo.Node(f.Pkt.Dst).Chiplet
	u.tokens[chiplet][vnet] = p.id
	u.popups[p.id] = p
	u.net.Stats.UpwardPackets++
	if u.net.Tracing() {
		u.net.Trace("upp", r.ID, "popup %d: selected upward pkt%d (%s) toward %d",
			p.id, f.Pkt.ID, vnet, f.Pkt.Dst)
	}
}

// chasePath builds the popup path the way the paper's UPP_req does
// (Sec. V-B3): it follows the upward packet's own VC allocation chain —
// the route its transmitted flits actually took, whatever the local
// routing algorithm chose — until the head flit's position, then extends
// with route computation for the untransmitted remainder. The UPP_req,
// the reversed UPP_ack and the upward flits all use this path.
//
// settled is false when the chain is momentarily indeterminate (a head in
// flight or not yet route-computed); the caller retries next cycle — a
// genuinely deadlocked packet settles and stays settled.
func (u *UPP) chasePath(r *router.Router, port topology.PortID, vcIdx int, pkt *message.Packet) (path []hop, settled bool, err error) {
	topo := u.net.Topo
	tracked := r.VCAt(port, vcIdx)
	path = []hop{{node: r.ID, inPort: topology.InvalidPort, outPort: tracked.OutPort}}
	cur, curIn := r.Neighbor(tracked.OutPort)
	curVC := tracked.OutVC // -1 when the packet is Waiting (nothing transmitted)

	// Phase 1: follow the allocation chain through the chiplet.
	for curVC >= 0 {
		if len(path) > topo.NumNodes() {
			return nil, false, fmt.Errorf("allocation chain loop from %d to %d", r.ID, pkt.Dst)
		}
		rr := u.net.Router(cur)
		vc := rr.VCAt(curIn, int(curVC))
		if vc.OutPort == topology.InvalidPort {
			// The head sits here un-routed (or is still in flight): the
			// chain is not settled yet.
			return nil, false, nil
		}
		if f, _, ok := vc.Front(); ok && f.Pkt != pkt {
			// The VC has moved on to another packet mid-chase — the
			// tracked packet advanced; treat as unsettled (the proceeded
			// check will cancel if it fully moved).
			return nil, false, nil
		}
		path = append(path, hop{node: cur, inPort: curIn, outPort: vc.OutPort})
		if vc.OutPort == topology.LocalPort {
			if cur != pkt.Dst {
				return nil, false, fmt.Errorf("allocation chain ejects at %d, dst %d", cur, pkt.Dst)
			}
			return path, true, nil
		}
		next, nextIn := rr.Neighbor(vc.OutPort)
		nextVC := vc.OutVC
		cur, curIn, curVC = next, nextIn, nextVC
	}

	// Phase 2: the remainder was never transmitted; extend with route
	// computation (a pseudo-packet keeps per-packet routing state, e.g.
	// up*/down* phase or odd-even entry column, off the real packet).
	pseudo := &message.Packet{
		ID:                pkt.ID,
		Src:               pkt.Src,
		Dst:               pkt.Dst,
		VNet:              pkt.VNet,
		IngressInterposer: pkt.IngressInterposer,
		EgressBoundary:    pkt.EgressBoundary,
		RouteLayer:        int16(topology.InterposerChiplet),
		LayerEntryX:       int16(topo.Node(r.ID).X),
		// Pin the pseudo packet to the CURRENT routing epoch regardless
		// of the real packet's stamp: during a reconfiguration the
		// untransmitted remainder of the chase must follow live tables
		// (the popup circuit drains the path directly, so the choice is
		// free), and an old-epoch copy would otherwise trip the lazy
		// migration accounting in Route on a packet that isn't real.
		Epoch: u.net.RouteEpoch(),
	}
	for i := 0; ; i++ {
		if i > topo.NumNodes() {
			return nil, false, fmt.Errorf("routing loop from %d to %d", r.ID, pkt.Dst)
		}
		out, rerr := u.net.Route(cur, curIn, pseudo)
		if rerr != nil {
			return nil, false, rerr
		}
		path = append(path, hop{node: cur, inPort: curIn, outPort: out})
		if out == topology.LocalPort {
			if cur != pkt.Dst {
				return nil, false, fmt.Errorf("route to %d ejects early at %d", pkt.Dst, cur)
			}
			return path, true, nil
		}
		node := topo.Node(cur)
		cur, curIn = node.Ports[out].Neighbor, node.Ports[out].NeighborPort
	}
}

// checkProceeded cancels popups whose packet moved on normally before the
// ack returned — the false-positive path (Sec. V-B1, third rule).
func (u *UPP) checkProceeded(cycle sim.Cycle) {
	for _, p := range u.sortedPopups() {
		if p.stage != stageReq || p.cancelled {
			continue
		}
		r := u.net.Router(p.origin)
		vc := r.VCAt(p.port, p.vcIdx)
		f, _, ok := vc.Front()
		if ok && p.holds(f.Pkt) && f.Seq == p.frontSeq {
			continue // still stalled
		}
		p.cancelled = true
		u.net.Stats.PopupsCancelled++
		if u.net.Tracing() {
			u.net.Trace("upp", p.origin, "popup %d: pkt%d proceeded normally; cancelling", p.id, p.pktID)
		}
		if !p.reqSent {
			// The req never left; nothing to clean up remotely.
			u.finishCancelled(p)
			continue
		}
		p.stopPending = true
		p.retries = 0 // fresh retry budget for the stop phase
	}
}

// armDeadline (re)arms the signal watchdog for p's current phase with
// exponential backoff on the retry count. No-op with the watchdog off.
func (u *UPP) armDeadline(p *popup, cycle sim.Cycle) {
	if !u.hardened() {
		return
	}
	shift := p.retries
	if shift > 6 {
		shift = 6
	}
	p.deadline = cycle + sim.Cycle(signalTimeout)<<shift
}

// checkSignalTimeouts is the per-popup signal watchdog (hardened only):
// re-send a lost req, re-arm a lost stop, and after maxSignalRetries
// force-retire the popup via abortPopup. Every decision
// derives from origin-local knowledge only — the origin cannot tell a
// lost signal from a slow one, so a retry may race its predecessor; the
// receiver side (signalArrive, deliverReqStop, launchAck, ackAtOrigin)
// deduplicates same-popup signals instead of panicking.
func (u *UPP) checkSignalTimeouts(cycle sim.Cycle) {
	if len(u.popups) == 0 {
		return
	}
	for _, p := range u.sortedPopups() {
		if p.deadline == 0 || cycle < p.deadline || p.stage == stageDrain {
			continue
		}
		switch {
		case !p.cancelled:
			// The req — or the ack it should produce — went missing.
			if p.retries >= maxSignalRetries {
				u.abortPopup(p)
				continue
			}
			p.retries++
			p.resendReq = true
			u.armDeadline(p, cycle)
			u.net.Stats.SignalRetries++
			if u.net.Tracing() {
				u.net.Trace("upp", p.origin, "popup %d: signal timeout; re-sending UPP_req (retry %d)", p.id, p.retries)
			}
		case !p.stopDelivered:
			// Cancelled, and the stop went missing on its way down.
			if p.retries >= maxSignalRetries {
				u.abortPopup(p)
				continue
			}
			p.retries++
			p.stopPending = true
			u.armDeadline(p, cycle)
			u.net.Stats.SignalRetries++
			if u.net.Tracing() {
				u.net.Trace("upp", p.origin, "popup %d: signal timeout; re-arming UPP_stop (retry %d)", p.id, p.retries)
			}
		case p.ackLaunched && !p.ackDone:
			// Stop delivered but the to-be-discarded ack never came home:
			// it was lost on the wire; nothing is left to wait for.
			u.abortPopup(p)
		default:
			p.deadline = 0
		}
	}
}

// abortPopup force-retires a popup whose signal retries are exhausted:
// sweep every latch, buffered ack and circuit entry it owns along its
// path, recycle any reservation state at the destination NI, release the
// origin entry and the token, and delete it. Signals of it still in
// flight find the popup gone on arrival and are discarded (counted as
// Stats.LateSignals). The packet itself is untouched — still stalled, it
// re-trips detection after Threshold cycles, so recovery degrades to a
// bounded retry loop instead of a wedge or a panic. Only reachable in
// stageReq (the drain never arms a deadline), so no VC holds or popup
// flit latches exist yet.
func (u *UPP) abortPopup(p *popup) {
	for i := 1; i < len(p.path); i++ {
		h := &p.path[i]
		ns := &u.nodes[h.node]
		if ns.reqStop.valid && ns.reqStop.popupID == p.id {
			ns.reqStop.valid = false
		}
		for j := 0; j < len(ns.acks); {
			if ns.acks[j].popupID == p.id {
				last := len(ns.acks) - 1
				copy(ns.acks[j:], ns.acks[j+1:])
				ns.acks[last] = ackEntry{}
				ns.acks = ns.acks[:last]
			} else {
				j++
			}
		}
		ce := &ns.circuit[p.vnet]
		if ce.active && ce.popupID == p.id {
			*ce = circuitEntry{vcIdx: -1}
		}
	}
	if p.resRequested {
		u.net.NI(p.dst).CancelReservation(p.vnet, p.id)
		p.resRequested = false
	}
	p.cancelled = true
	u.releaseOrigin(p)
	delete(u.popups, p.id)
	u.net.Stats.PopupsAborted++
	if u.net.Tracing() {
		u.net.Trace("upp", p.origin, "popup %d: retries exhausted; aborted (pkt%d falls back to re-detection)", p.id, p.pktID)
	}
}

// finishCancelled releases everything held by a cancelled popup once no
// signal of it remains in flight. The token (and hence the right of a new
// popup to install circuits on this path) is only released after the stop
// has swept the path clean.
func (u *UPP) finishCancelled(p *popup) {
	if p.reqSent && !p.stopDelivered {
		return // the stop still has to clean circuits and the reservation
	}
	u.releaseOrigin(p)
	if p.ackLaunched && !p.ackDone {
		return // wait for the ack to come home and be discarded
	}
	delete(u.popups, p.id)
}

// releaseOrigin frees the origin entry and the chiplet/VNet token. It
// uses the snapshotted destination chiplet: for a cancelled popup the
// packet may already be consumed and recycled by the time the stop/ack
// cleanup reaches here.
func (u *UPP) releaseOrigin(p *popup) {
	ns := &u.nodes[p.origin]
	if ns.entry[p.vnet] == p {
		ns.entry[p.vnet] = nil
		ns.counters[p.vnet] = 0
	}
	if u.tokens[p.dstChiplet][p.vnet] == p.id {
		u.tokens[p.dstChiplet][p.vnet] = 0
	}
}

// UPP offers the deadlock watchdog its protocol state.
var _ interface{ Diagnostic() string } = (*UPP)(nil)

// Diagnostic is the deadlock watchdog's view of live popup FSMs and held
// tokens (embedded in Network.Drain's StallDiagnostic).
func (u *UPP) Diagnostic() string {
	if len(u.popups) == 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range u.sortedPopups() {
		stage := "req"
		if p.stage == stageDrain {
			stage = "drain"
		}
		fmt.Fprintf(&b, "popup %d: pkt%d %s origin=%d dst=%d stage=%s reqSent=%v cancelled=%v stopPending=%v stopDelivered=%v ackLaunched=%v ackDone=%v retries=%d deadline=%d\n",
			p.id, p.pktID, p.vnet, p.origin, p.dst, stage,
			p.reqSent, p.cancelled, p.stopPending, p.stopDelivered, p.ackLaunched, p.ackDone,
			p.retries, p.deadline)
	}
	for ci := range u.tokens {
		for v := range u.tokens[ci] {
			if id := u.tokens[ci][v]; id != 0 {
				fmt.Fprintf(&b, "token chiplet=%d vnet=%s held by popup %d\n", ci, message.VNet(v), id)
			}
		}
	}
	return b.String()
}

// Scheduled-call kinds: every deferred protocol action UPP used to
// schedule as a closure is now a serializable network.SchemeCall, so a
// snapshot can capture signals and popup flits mid-flight (DESIGN.md
// §14). Delivery order and timing are identical to the closure form —
// same wheel slot, same append order.
const (
	// uppCallSignal lands a req/stop at path hop Hop of popup A
	// (B carries the sigKind) on node Node.
	uppCallSignal uint8 = iota + 1
	// uppCallAckOrigin lands popup A's UPP_ack at its origin router.
	uppCallAckOrigin
	// uppCallAckRelay lands popup A's ack in node Node's ack buffer at
	// reverse hop Hop.
	uppCallAckRelay
	// uppCallLatch fills node Node's per-VNet (B) popup latch with Flit.
	uppCallLatch
)

// OnScheduledCall implements network.Scheme: the dispatch half of the
// closure-free deferred actions above.
func (u *UPP) OnScheduledCall(c network.SchemeCall, cycle sim.Cycle) {
	switch c.Kind {
	case uppCallSignal:
		u.signalArrive(c.A, sigKind(c.B), int(c.Hop), c.Node, cycle)
	case uppCallAckOrigin:
		u.ackAtOrigin(c.A, cycle)
	case uppCallAckRelay:
		u.ackRelayArrive(c.Node, c.A, int(c.Hop), cycle)
	case uppCallLatch:
		l := &u.nodes[c.Node].popupLatch[c.B]
		l.reserved = false
		l.valid = true
		l.flit = c.Flit
		l.ready = cycle // circuit switching: movable the cycle it lands
	case network.CallReservationGranted:
		u.reservationGranted(c.Node, c.A, message.VNet(c.B), cycle)
	case network.CallPopupEjected:
		// A fully ejected popup packet completes its recovery. Popup packets
		// never eject through the normal router datapath (requestOf skips
		// popup flits in the destination chiplet; popup ejection is
		// EjectDirect from StartOfCycle), so this call only ever comes from
		// the coordinator.
		if p := u.popups[c.A]; p != nil && p.holds(c.Flit.Pkt) {
			u.completePopup(p, cycle)
		}
	default:
		panic(fmt.Sprintf("upp: unknown scheduled call kind %d", c.Kind))
	}
}

// reservationGranted is the destination NI's answer to a UPP_req: the
// ejection entry for popup id is reserved, so its ack can leave.
func (u *UPP) reservationGranted(node topology.NodeID, id uint64, vnet message.VNet, cycle sim.Cycle) {
	u.net.Stats.ReservationsGranted++
	pp := u.popups[id]
	if pp == nil {
		// Granted for a force-retired popup (abortPopup removes its
		// waiter, so this should be unreachable): recycle the entry.
		u.net.NI(node).CancelReservation(vnet, id)
		u.net.Stats.LateSignals++
		return
	}
	pp.ackLaunched = true
	u.launchAck(pp, cycle)
}

// completePopup tears down circuit state, releases stranded VCs, frees the
// token and retires the popup.
func (u *UPP) completePopup(p *popup, cycle sim.Cycle) {
	for i := 1; i < len(p.path); i++ {
		h := &p.path[i]
		ns := &u.nodes[h.node]
		ce := &ns.circuit[p.vnet]
		if ce.active && ce.popupID == p.id {
			if ce.vcIdx >= 0 && !ce.released {
				// The packet diverted past this VC (its tail traveled by
				// latch); free the upstream allocation it still holds.
				r := u.net.Router(h.node)
				if vc := r.VCAt(h.inPort, int(ce.vcIdx)); vc.Empty() {
					r.ForceReleaseVC(h.inPort, int(ce.vcIdx), cycle)
				}
			}
			*ce = circuitEntry{vcIdx: -1}
		}
	}
	// completePopup runs at tail ejection, before the NI's consume step
	// releases the packet — livePkt asserts that ordering.
	p.livePkt().Popup = false
	u.releaseOrigin(p)
	delete(u.popups, p.id)
	u.net.Stats.PopupsCompleted++
	if u.net.Tracing() {
		u.net.Trace("upp", p.dst, "popup %d: pkt%d fully ejected; recovery complete", p.id, p.pktID)
	}
}
