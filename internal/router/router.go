package router

import (
	"fmt"
	"math/bits"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// EventSink is how a router hands flits and credits to the network fabric
// for time-delayed delivery. The network implements it.
type EventSink interface {
	// DeliverFlit schedules f's buffer write into VC vc of input port port
	// of router to at the given cycle.
	DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle)
	// DeliverCredit schedules a credit arrival at router to's output port
	// port for downstream VC vc: delta buffer slots (0 or 1) and, when
	// free is set, the downstream VC has fully drained and may be
	// reallocated. Credits addressed to the local port reach the NI.
	DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle)
}

// LocalSink is the NI side of a router's local port.
type LocalSink interface {
	// CanAcceptHead reports whether a new packet may start ejecting: a
	// free, unreserved ejection-queue entry exists for its VNet.
	CanAcceptHead(p *message.Packet, cycle sim.Cycle) bool
	// AcceptFlit delivers an ejecting flit; arrival is when the NI sees
	// it.
	AcceptFlit(f message.Flit, arrival sim.Cycle)
}

// RouteFunc computes the output port for a packet whose head flit is at
// router cur, having arrived through input port inPort (route computation
// stage). Table-routed schemes (composable routing) are channel-indexed
// and need the input port; algorithmic routing ignores it.
type RouteFunc func(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error)

// Stats counts datapath events for the throughput and energy models.
type Stats struct {
	BufferWrites  uint64
	BufferReads   uint64
	CrossbarTravs uint64
	LinkTravs     uint64
	SARequests    uint64
	SAGrants      uint64
	// UpFlits counts flits sent through Up output ports (vertical
	// utilization; UPP detection resets hang off it).
	UpFlits uint64
}

// InPort is one input port's virtual channels: a view of the router's
// port-major VC storage for schemes, checkers and tests. The datapath
// indexes the flat storage itself.
type InPort struct {
	VCs []VC
}

// OutPort is the credit and allocation state of the downstream input port
// an output feeds — views of the router's flat credit and busy storage.
type OutPort struct {
	// Credits per downstream VC.
	Credits []int16
	// Busy marks downstream VCs currently allocated to a packet.
	Busy []bool
}

// port is everything else the datapath keeps per port, both directions of
// it in one record so a hop reads one line for its input and one for its
// output.
type port struct {
	// Per-cycle crossbar claims are epoch-stamped (cycle+1 = "claimed
	// through that cycle") rather than cleared by a start-of-cycle reset,
	// so a router the active-set kernel skips for thousands of idle cycles
	// needs no per-cycle bookkeeping to keep its claim state consistent.
	outClaimedAt sim.Cycle
	inClaimedAt  sim.Cycle
	// sent counts flits sent through the output (link utilization and
	// load-balance analysis).
	sent uint64
	// vcMask has bit v set while input VC v holds a flit; buffered counts
	// the flits across them (the checkers' and the reference allocators'
	// view of the same fact). Derived state, like Router.occ.
	vcMask   uint64
	buffered int32
	// nb and nbPort are the far side of the link — where the output's flits
	// and the input's credits go — copied from the topology node, whose
	// ports never change after build. The local port's credits go to this
	// router's own NI.
	nb     topology.NodeID
	nbPort topology.PortID
	inRR   int8 // round-robin pointer over the input's VCs
	outRR  int8 // round-robin pointer over input ports for switch allocation
}

// Router is one router instance — the only router type. Arch, fixed at
// construction, selects the switch allocator Step runs and whether the
// output staging FIFOs exist; everything else is shared.
//
// Field order is layout (DESIGN.md §8): what event delivery and Step touch
// on every hop comes first so it shares the struct's leading cache lines.
type Router struct {
	// The flat port-major storage: VC vc of input port p is vcs[p*nvc+vc],
	// its upstream credit and busy bit credits[p*nvc+vc] and busy[p*nvc+vc].
	// In and Out are per-port views of the same memory. What a flit's
	// delivery touches — vcs, ports, the counters and masks below, the head
	// of Stats — is declared together.
	vcs   []VC
	ports []port
	// nvc is Cfg.NumVCs(), the stride of the flat storage.
	nvc int
	// buffered counts flits currently held in this router's VCs and staged
	// the flits across oq's staging FIFOs; a router with neither is idle
	// and skipped by the simulation loop.
	buffered int32
	staged   int32
	// occ has bit p set while input port p holds a flit. With the per-port
	// vcMask and buffered it is derived state: maintained by ReceiveFlit and
	// PopFront only, rebuilt by Restore, never serialized.
	occ uint32
	// alloc indexes allocators by Arch.
	alloc uint8

	Stats Stats

	credits []int16
	busy    []bool
	// Cfg is the effective input-side configuration: BufferDepth is the
	// per-input-VC depth credits are counted against, which for oq is
	// smaller than the configured budget depth (see LayoutFor).
	Cfg Config

	// claimedAt is the latest claim stamp on any port, either direction:
	// allocation reads the per-port stamps only on a cycle it covers.
	claimedAt sim.Cycle
	// downOut is a bitmask of output ports whose link is transiently down
	// (runtime fault injection). Switch allocation skips them; the mask is
	// zero in fault-free runs, so the hot-path check never fires.
	downOut uint32
	// fencedOut is a bitmask of output ports being drained ahead of a
	// permanent link removal (dynamic reconfiguration). Unlike downOut it
	// blocks only new wormholes: Waiting heads are never granted a fenced
	// port (and are migrated onto the new routing by UnrouteFencedHeads),
	// while Active packets finish crossing so the cut never splits a worm.
	fencedOut uint32
	// upPorts is the mask of Up outputs and meshPorts of intra-layer mesh
	// outputs (StalledHead's transition-time widening), fixed at
	// construction.
	upPorts   uint32
	meshPorts uint32

	// upRouted is the upward census: per VNet, the number of input VCs
	// whose computed route is an Up output. UPP's detector rejects a router
	// in O(1) on a zero count instead of rescanning its VCs every cycle. It
	// moves only where a VC's OutPort does — route computation (routeHead),
	// releaseVC and UnrouteFencedHeads — and is derived state: Restore
	// recounts it, the snapshot does not carry it.
	upRouted [message.NumVNets]int32
	// upSent records which VNets sent a flit through an Up output port
	// during cycle upSentAt-1 (UPP's timeout counters reset on it); the
	// epoch stamp expires it without a per-cycle reset.
	upSent   uint8
	upSentAt sim.Cycle

	sink  EventSink
	local LocalSink
	route RouteFunc
	rng   sim.RNG

	// stage holds oq's per-output staging FIFOs (nil for iq and voq, which
	// send from the input VCs straight onto the link); see oq.go.
	stage []stageFIFO

	ID   topology.NodeID
	Node *topology.Node
	// Arch names the microarchitecture (ArchIQ, ArchOQ or ArchVOQ).
	Arch string

	In  []InPort
	Out []OutPort
}

// allocators are the three switch allocators Step chooses between.
var (
	allocators = [...]func(*Router, sim.Cycle){(*Router).allocIQ, (*Router).allocVOQ, (*Router).allocOQ}
	archAlloc  = map[string]uint8{ArchIQ: 0, ArchVOQ: 1, ArchOQ: 2}
)

// maxPorts bounds the router radix: switch allocation's request masks and
// the occ/downOut/fencedOut/upPorts/meshPorts port masks are 32 bits wide.
const maxPorts = 32

// Arena is the backing storage of many routers, one slab per kind, so a
// router's state is a handful of runs adjacent to its neighbours' rather
// than a dozen objects in as many size-class spans. New carves from it and
// falls back to plain allocation when a slab is short or the arena is nil
// (standalone routers).
type Arena struct {
	routers []Router
	ports   []port
	in      []InPort
	out     []OutPort
	vcs     []VC
	rings   []bufFlit
	credits []int16
	busy    []bool
}

// NewArena sizes the slabs for one arch router per node.
func NewArena(arch string, cfg Config, nodes []topology.Node) (*Arena, error) {
	lay, err := LayoutFor(arch, cfg)
	if err != nil {
		return nil, err
	}
	ports := 0
	for i := range nodes {
		ports += len(nodes[i].Ports)
	}
	vcs := ports * cfg.NumVCs()
	return &Arena{
		routers: make([]Router, len(nodes)),
		ports:   make([]port, ports),
		in:      make([]InPort, ports),
		out:     make([]OutPort, ports),
		vcs:     make([]VC, vcs),
		rings:   make([]bufFlit, vcs*(lay.InputDepth-1)),
		credits: make([]int16, vcs),
		busy:    make([]bool, vcs),
	}, nil
}

// carve takes n elements off the front of slab, or allocates them when the
// slab cannot supply that many.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// New constructs the arch variant of the router for node n, its storage
// carved from a (nil for a standalone router). Every variant receives the
// same budget configuration; oq derives its effective per-VC depth and its
// staging capacity from LayoutFor so the total matches BufferBudget(cfg)
// exactly.
func New(arch string, n *topology.Node, cfg Config, sink EventSink, local LocalSink, route RouteFunc, rng *sim.RNG, a *Arena) (*Router, error) {
	lay, err := LayoutFor(arch, cfg)
	if err != nil {
		return nil, err
	}
	nports, nvc := len(n.Ports), cfg.NumVCs()
	if nports > maxPorts {
		return nil, fmt.Errorf("router: node %d has %d ports; the port masks hold at most %d", n.ID, nports, maxPorts)
	}
	if a == nil {
		a = &Arena{}
	}
	cfg.BufferDepth = lay.InputDepth
	r := &carve(&a.routers, 1)[0]
	*r = Router{
		vcs:     carve(&a.vcs, nports*nvc),
		ports:   carve(&a.ports, nports),
		credits: carve(&a.credits, nports*nvc),
		busy:    carve(&a.busy, nports*nvc),

		nvc:   nvc,
		alloc: archAlloc[arch],

		sink:  sink,
		local: local,
		route: route,
		rng:   *rng,

		ID:   n.ID,
		Node: n,
		Cfg:  cfg,
		Arch: arch,
		In:   carve(&a.in, nports),
		Out:  carve(&a.out, nports),
	}
	rings := carve(&a.rings, len(r.vcs)*(cfg.BufferDepth-1))
	for i := range r.vcs {
		lo, hi := i*(cfg.BufferDepth-1), (i+1)*(cfg.BufferDepth-1)
		r.vcs[i].ring = rings[lo:hi:hi]
		r.vcs[i].reset()
		r.credits[i] = int16(cfg.BufferDepth)
	}
	for pi := range r.ports {
		lo, hi := pi*nvc, (pi+1)*nvc
		r.In[pi].VCs = r.vcs[lo:hi:hi]
		r.Out[pi] = OutPort{Credits: r.credits[lo:hi:hi], Busy: r.busy[lo:hi:hi]}
		pt := &n.Ports[pi]
		r.ports[pi] = port{nb: pt.Neighbor, nbPort: pt.NeighborPort}
		switch pt.Dir {
		case topology.Up:
			r.upPorts |= 1 << uint(pi)
		case topology.East, topology.West, topology.North, topology.South:
			r.meshPorts |= 1 << uint(pi)
		}
	}
	r.ports[topology.LocalPort].nb, r.ports[topology.LocalPort].nbPort = n.ID, topology.LocalPort
	if lay.StageSlots > 0 {
		// The local port ejects directly to the NI (no link to drain
		// onto), so only real outputs get staging storage.
		r.stage = make([]stageFIFO, nports)
		for pi := 1; pi < nports; pi++ {
			r.stage[pi].buf = make([]stagedFlit, lay.StageSlots)
		}
	}
	return r, nil
}

// SetLocal attaches the NI-facing sink. The router and its NI reference
// each other, so the sink is wired after construction.
func (r *Router) SetLocal(l LocalSink) { r.local = l }

// SetSink replaces the event sink. The parallel cycle kernel installs a
// per-block recording sink here so that Step's cross-component effects
// (scheduled flits and credits) can be buffered during the concurrent
// step phase and replayed in NodeID order by the commit.
func (r *Router) SetSink(s EventSink) { r.sink = s }

// Buffered returns the number of flits currently held anywhere in the
// router: input VCs plus output staging.
func (r *Router) Buffered() int { return int(r.buffered + r.staged) }

// VCAt returns the VC for inspection by plugins and tests.
func (r *Router) VCAt(port topology.PortID, vc int) *VC { return &r.vcs[int(port)*r.nvc+vc] }

// PortSent returns the number of flits sent through output port p.
func (r *Router) PortSent(p topology.PortID) uint64 { return r.ports[p].sent }

// ReceiveFlit performs the buffer write of a flit arriving on (port, vc).
// The flit becomes pipeline-eligible the following cycle.
func (r *Router) ReceiveFlit(port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	r.VCAt(port, int(vc)).push(f, cycle+1)
	p := &r.ports[port]
	p.buffered++
	p.vcMask |= 1 << uint(vc)
	r.occ |= 1 << uint(port)
	r.buffered++
	r.Stats.BufferWrites++
}

// ReceiveCredit applies a credit arriving at output port port.
func (r *Router) ReceiveCredit(port topology.PortID, vc int8, delta int, free bool) {
	i := int(port)*r.nvc + int(vc)
	r.credits[i] += int16(delta)
	if r.credits[i] > int16(r.Cfg.BufferDepth) {
		panic("router: credit overflow (flow control bug)")
	}
	if free {
		r.busy[i] = false
	}
}

// Idle reports whether the router holds no flits, buffered or staged —
// nothing for Step to do. The active-set kernel retires idle routers from
// its per-cycle walk until a flit arrival wakes them again.
func (r *Router) Idle() bool { return r.buffered == 0 && r.staged == 0 }

// UpSentMask returns the bitmask of VNets that sent a flit through an Up
// output during the given cycle; the mask expires with the cycle.
func (r *Router) UpSentMask(cycle sim.Cycle) uint8 {
	if r.upSentAt != cycle+1 {
		return 0
	}
	return r.upSent
}

// MarkUpSent records an out-of-band up-port transmission (popup flits)
// during the given cycle.
func (r *Router) MarkUpSent(v message.VNet, cycle sim.Cycle) {
	if r.upSentAt != cycle+1 {
		r.upSent = 0
		r.upSentAt = cycle + 1
	}
	r.upSent |= 1 << uint(v)
}

// ClaimOutput reserves output port p for an out-of-band transfer (popup
// flit or protocol signal) during the given cycle. It reports whether the
// claim succeeded; claims expire with the cycle.
func (r *Router) ClaimOutput(p topology.PortID, cycle sim.Cycle) bool {
	if r.ports[p].outClaimedAt > cycle {
		return false
	}
	r.ports[p].outClaimedAt = cycle + 1
	r.claimedAt = max(r.claimedAt, cycle+1)
	return true
}

// ClaimInput reserves input port p's crossbar slot for the given cycle.
func (r *Router) ClaimInput(p topology.PortID, cycle sim.Cycle) bool {
	if r.ports[p].inClaimedAt > cycle {
		return false
	}
	r.ports[p].inClaimedAt = cycle + 1
	r.claimedAt = max(r.claimedAt, cycle+1)
	return true
}

// OutputClaimed reports whether output p is claimed during the given cycle.
func (r *Router) OutputClaimed(p topology.PortID, cycle sim.Cycle) bool {
	return r.ports[p].outClaimedAt > cycle
}

// claimed returns the input and output ports a plugin holds a claim on
// during the given cycle. claimedAt answers for the whole router, so the
// per-port stamps are read only on a cycle some claim covers.
func (r *Router) claimed(cycle sim.Cycle) (in, out uint32) {
	if r.claimedAt <= cycle {
		return 0, 0
	}
	for pi := range r.ports {
		if r.ports[pi].inClaimedAt > cycle {
			in |= 1 << uint(pi)
		}
		if r.ports[pi].outClaimedAt > cycle {
			out |= 1 << uint(pi)
		}
	}
	return in, out
}

// SetPortDown marks output port p as crossing a transiently-down link
// (runtime fault injection). While set, switch allocation never grants
// the port; plugin senders (UPP signals and popup flits) must check
// PortDown before SendDirect. The network toggles it from a fault plan's
// link-flap schedule on both endpoints of the link.
func (r *Router) SetPortDown(p topology.PortID, down bool) {
	if down {
		r.downOut |= 1 << uint(p)
	} else {
		r.downOut &^= 1 << uint(p)
	}
}

// PortDown reports whether output port p crosses a transiently-down link.
func (r *Router) PortDown(p topology.PortID) bool {
	return r.downOut&(1<<uint(p)) != 0
}

// SetPortFenced marks output port p as draining toward a permanent link
// removal. While fenced, switch allocation grants the port to Active
// packets only — no new wormhole may start crossing. The reconfiguration
// engine fences both endpoints of a dying link, migrates the Waiting
// heads, waits for the Active worms to finish, then cuts the link.
func (r *Router) SetPortFenced(p topology.PortID, fenced bool) {
	if fenced {
		r.fencedOut |= 1 << uint(p)
	} else {
		r.fencedOut &^= 1 << uint(p)
	}
}

// PortFenced reports whether output port p is fenced for draining.
func (r *Router) PortFenced(p topology.PortID) bool {
	return r.fencedOut&(1<<uint(p)) != 0
}

// UnrouteFencedHeads clears the route of every Waiting head whose computed
// output port is fenced, returning it to the route-computation stage: the
// next Step re-routes the packet, and the network's route function
// migrates it onto the current routing epoch (away from the dying link).
// Active packets (downstream VC already allocated) are left alone — they
// must finish crossing. Held VCs belong to a scheme plugin and are
// skipped. Returns the number of heads unrouted.
func (r *Router) UnrouteFencedHeads() int {
	if r.fencedOut == 0 {
		return 0
	}
	n := 0
	for i := range r.vcs {
		vc := &r.vcs[i]
		if vc.Hold || vc.State != VCWaiting || vc.OutPort == topology.InvalidPort {
			continue
		}
		if r.fencedOut&(1<<uint(vc.OutPort)) == 0 {
			continue
		}
		r.censusDrop(vc, i%r.nvc)
		vc.State = VCIdle
		vc.OutPort = topology.InvalidPort
		vc.routed = false
		n++
	}
	return n
}

// PortQuiet reports whether output port p has no allocation in flight:
// no input VC is Waiting on or Actively streaming through it, and nothing
// is staged for it (staged flits still need the link). The
// reconfiguration engine polls it on a fenced port to learn when the link
// may be cut without splitting a wormhole.
func (r *Router) PortQuiet(p topology.PortID) bool {
	if r.StagedCount(p) != 0 {
		return false
	}
	for i := range r.vcs {
		if vc := &r.vcs[i]; vc.State != VCIdle && vc.OutPort == p {
			return false
		}
	}
	return true
}

// StalledHead scans the input VCs of vnet, round-robin after the dense
// index rrStart (port*NumVCs + vc), for a packet stalled at the front of
// its VC with a computed route through an Up output — or, with mesh set,
// through an intra-layer mesh output (UPP's transition-time widening,
// DESIGN.md §15). It returns the VC's location and front flit, or
// InvalidPort. A zero upward census answers the Up form without a scan.
func (r *Router) StalledHead(vnet message.VNet, rrStart int, cycle sim.Cycle, mesh bool) (topology.PortID, int, message.Flit) {
	censusEmpty := !mesh && r.upRouted[vnet] == 0
	if censusEmpty && !censusDebug {
		return topology.InvalidPort, -1, message.Flit{}
	}
	want := r.upPorts
	if mesh {
		want = r.meshPorts
	}
	nvc := r.nvc
	lo := r.Cfg.VCIndex(vnet, 0)
	hi := lo + r.Cfg.VCsPerVNet
	total := len(r.ports) * nvc
	rrStart %= total
	pi, vi := rrStart/nvc, rrStart%nvc
	for k := 0; k < total; k++ {
		if vi++; vi == nvc {
			vi = 0
			if pi++; pi == len(r.ports) {
				pi = 0
			}
		}
		if vi < lo || vi >= hi {
			continue
		}
		vc := &r.vcs[pi*nvc+vi]
		if vc.Hold || vc.State == VCIdle || want&(1<<uint(vc.OutPort)) == 0 {
			continue
		}
		f, ok := vc.FrontReady(cycle)
		if !ok || f.Pkt.Popup {
			continue
		}
		if censusEmpty {
			panic(fmt.Sprintf("router %d: upward census of %s is zero but in[%d] vc%d is routed to Up port %d", r.ID, vnet, pi, vi, vc.OutPort))
		}
		return topology.PortID(pi), vi, f
	}
	return topology.InvalidPort, -1, message.Flit{}
}

// UpRouted returns the upward census (see the upRouted field) for the
// invariant checkers.
func (r *Router) UpRouted() [message.NumVNets]int32 { return r.upRouted }

// RecountUpRouted derives the upward census from the VCs themselves —
// what Restore rebuilds it with and what the checkers hold it to.
func (r *Router) RecountUpRouted() (n [message.NumVNets]int32) {
	for i := range r.vcs {
		if r.upPorts&(1<<uint(r.vcs[i].OutPort)) != 0 {
			n[i%r.nvc/r.Cfg.VCsPerVNet]++
		}
	}
	return n
}

// CheckDerived holds the derived occupancy state to a recount: occ, the
// per-port VC masks and flit counts and the router's total from the VCs,
// claimedAt from the per-port stamps.
func (r *Router) CheckDerived() error {
	var (
		occ       uint32
		buffered  int32
		claimedAt sim.Cycle
	)
	for pi := range r.ports {
		p := &r.ports[pi]
		var mask uint64
		var n int32
		for vi := range r.In[pi].VCs {
			if c := r.In[pi].VCs[vi].count; c != 0 {
				mask |= 1 << uint(vi)
				n += int32(c)
			}
		}
		if mask != p.vcMask || n != p.buffered {
			return fmt.Errorf("router %d in[%d]: VC mask %#x with %d flits, its VCs hold mask %#x with %d", r.ID, pi, p.vcMask, p.buffered, mask, n)
		}
		if mask != 0 {
			occ |= 1 << uint(pi)
		}
		buffered += n
		claimedAt = max(claimedAt, p.inClaimedAt, p.outClaimedAt)
	}
	if occ != r.occ || buffered != r.buffered {
		return fmt.Errorf("router %d: occupancy mask %#x with %d flits, its ports hold mask %#x with %d", r.ID, r.occ, r.buffered, occ, buffered)
	}
	if claimedAt != r.claimedAt {
		return fmt.Errorf("router %d: claimedAt %d, latest port claim %d", r.ID, r.claimedAt, claimedAt)
	}
	return nil
}

// Neighbor returns the (node, port) on the far side of output port p.
func (r *Router) Neighbor(p topology.PortID) (topology.NodeID, topology.PortID) {
	pt := &r.Node.Ports[p]
	return pt.Neighbor, pt.NeighborPort
}

// Step runs one cycle of the router pipeline: route computation for fresh
// head flits, switch allocation with VC selection, and switch traversal
// for the winners. Arch picks the allocator — where the queues sit and how
// inputs are matched to outputs is all that differs between the variants.
//
// Concurrency contract (the parallel cycle kernel depends on it): Step
// mutates only this router's own state (VCs, claims, credits, stats, the
// upward census, its split RNG) and emits every cross-component effect
// through r.sink (DeliverFlit/DeliverCredit) or r.local (AcceptFlit). Its
// only reads of other components are the attached NI's ejection occupancy
// (CanAcceptHead) and immutable topology/route tables — it never reads
// another router. Any new datapath feature that needs cross-router state
// during Step must instead be staged through the sinks or moved into the
// scheme's StartOfCycle/EndOfCycle hooks, which run on the coordinator
// (that is where UPP reads the census, after the step phase joined).
// ReceiveFlit and ReceiveCredit keep the same contract — they touch this
// router only — for the kernel's concurrent deliver phase.
func (r *Router) Step(cycle sim.Cycle) {
	if r.Idle() {
		return
	}
	allocators[r.alloc](r, cycle)
}

// allocIQ is the paper's separable (input-first then output) round-robin
// switch allocator: each input port nominates one VC, each requested
// output grants one input.
func (r *Router) allocIQ(cycle sim.Cycle) {
	// An input may only nominate toward an output that is neither claimed
	// by a plugin nor down; nothing in Step changes either during a cycle.
	inClaimed, outClaimed := r.claimed(cycle)
	free := ^(r.downOut | outClaimed)
	// Input arbitration: each unclaimed input port holding a flit nominates
	// one VC and files a request bit with that VC's output. An input
	// nominates once, so the per-output request masks are disjoint.
	var (
		req   [maxPorts]uint32 // per output: the input ports requesting it
		nomVC [maxPorts]int8   // per input: its nominated VC
		outs  uint32           // outputs with at least one request
	)
	for in := r.occ &^ inClaimed; in != 0; in &= in - 1 {
		pi := bits.TrailingZeros32(in)
		if vi := r.pickVC(topology.PortID(pi), free, cycle); vi >= 0 {
			oi := uint(r.VCAt(topology.PortID(pi), vi).OutPort)
			nomVC[pi] = int8(vi)
			req[oi] |= 1 << uint(pi)
			outs |= 1 << oi
			r.Stats.SARequests++
		}
	}
	// Output arbitration, ascending output order (grant's RNG draws keep
	// that order): each requested output grants one input.
	for ; outs != 0; outs &= outs - 1 {
		oi := bits.TrailingZeros32(outs)
		pi := rrPick(uint64(req[oi]), int(r.ports[oi].outRR))
		r.ports[oi].outRR = int8(pi)
		r.grant(topology.PortID(pi), int(nomVC[pi]), cycle)
	}
}

// rrPick returns the lowest set bit of m above position rr, wrapping to
// m's lowest set bit. Picking and clearing until m is empty visits the set
// bits above rr in ascending order, then those at or below it — round-robin
// starting after the last grant and ending on rr itself. m must be non-zero.
func rrPick(m uint64, rr int) int {
	if above := m &^ (2<<uint(rr) - 1); above != 0 {
		return bits.TrailingZeros64(above)
	}
	return bits.TrailingZeros64(m)
}

// routeHead runs route computation — once per packet per router — for the
// fresh head f at the front of VC vi of input port pi, and enters the VC
// in the upward census when the route leaves through an Up port.
func (r *Router) routeHead(pi topology.PortID, vi int, vc *VC, f message.Flit, cycle sim.Cycle) {
	op, err := r.route(r.ID, pi, f.Pkt)
	if err != nil {
		panic(fmt.Sprintf("router %d (x=%d y=%d chiplet %d) cycle %d: route computation failed for pkt %d (%s %d->%d) at input port %d: %v",
			r.ID, r.Node.X, r.Node.Y, r.Node.Chiplet, cycle, f.Pkt.ID, f.Pkt.VNet, f.Pkt.Src, f.Pkt.Dst, pi, err))
	}
	vc.OutPort = op
	vc.State = VCWaiting
	vc.routed = true
	if r.upPorts&(1<<uint(op)) != 0 {
		r.upRouted[vi/r.Cfg.VCsPerVNet]++
	}
}

// censusDrop removes VC vi from the upward census ahead of its OutPort
// being cleared.
func (r *Router) censusDrop(vc *VC, vi int) {
	if r.upPorts&(1<<uint(vc.OutPort)) != 0 {
		r.upRouted[vi/r.Cfg.VCsPerVNet]--
	}
}

// releaseVC returns VC vi to Idle once its packet has left.
func (r *Router) releaseVC(vc *VC, vi int) {
	r.censusDrop(vc, vi)
	vc.reset()
}

// request is what switch allocation learns about one input VC.
type request uint8

const (
	// noRequest: nothing at the front that wants the crossbar this cycle.
	noRequest request = iota
	// blocked: a routed front flit that cannot advance this cycle.
	blocked
	// eligible: the front flit may cross to its output now.
	eligible
)

// requestOf is the one head-eligibility rule all three allocators share:
// can the front flit of VC vi of input port pi cross the switch this cycle
// toward one of the outputs in outs? It also runs route computation for a
// fresh head. The allocators differ only in the mask they pass — iq every
// output that is neither claimed nor down, voq the single output being
// matched, oq every output whose staging FIFO has room.
func (r *Router) requestOf(pi topology.PortID, vi int, outs uint32, cycle sim.Cycle) request {
	vc := r.VCAt(pi, vi)
	if vc.Hold {
		// A scheme plugin owns this VC's draining.
		return noRequest
	}
	f, ok := vc.FrontReady(cycle)
	if !ok {
		return noRequest
	}
	if f.Pkt.Popup && int16(r.Node.Chiplet) == f.Pkt.DstChiplet {
		// Inside the destination chiplet, popup flits bypass switch
		// allocation and drain through the circuit (Sec. V-C). Upstream —
		// the interposer mesh and the source chiplet — the packet's
		// trailing flits still flow normally toward the origin interposer
		// router.
		return noRequest
	}
	if f.IsHead() && !vc.routed {
		r.routeHead(pi, vi, vc, f, cycle)
	}
	if vc.OutPort == topology.InvalidPort {
		return noRequest
	}
	out := uint32(1) << uint(vc.OutPort)
	if outs&out == 0 {
		return blocked
	}
	switch vc.State {
	case VCWaiting:
		// A fenced port is draining toward a permanent cut: no new
		// wormhole may start crossing (the head is migrated onto the new
		// routing by UnrouteFencedHeads).
		if r.fencedOut&out == 0 && r.headCanAdvance(vc, f, cycle) {
			return eligible
		}
	case VCActive:
		if vc.OutPort == topology.LocalPort || r.credits[int(vc.OutPort)*r.nvc+int(vc.OutVC)] > 0 {
			return eligible
		}
	}
	return blocked
}

// pickVC selects, round-robin, one VC of input port pi that can use the
// crossbar this cycle toward an output in outs: the non-empty VCs above the
// round-robin pointer in ascending order, then those at or below it — the
// wrap-around walk over every VC, without reading the empty ones. Returns
// -1 when no VC is eligible.
func (r *Router) pickVC(pi topology.PortID, outs uint32, cycle sim.Cycle) int {
	p := &r.ports[pi]
	for m := p.vcMask; m != 0; {
		vi := rrPick(m, int(p.inRR))
		m &^= 1 << uint(vi)
		if r.requestOf(pi, vi, outs, cycle) == eligible {
			p.inRR = int8(vi)
			return vi
		}
	}
	return -1
}

// headCanAdvance reports whether a Waiting head flit could be granted:
// the local sink accepts it, or a free downstream VC with credit exists.
func (r *Router) headCanAdvance(vc *VC, f message.Flit, cycle sim.Cycle) bool {
	if vc.OutPort == topology.LocalPort {
		return r.local.CanAcceptHead(f.Pkt, cycle)
	}
	need := int16(1)
	if r.Cfg.VCT {
		// Virtual cut-through: the downstream buffer must hold the whole
		// packet before the head moves.
		need = int16(f.Pkt.Size)
	}
	lo := r.outVCs(vc.OutPort, f.Pkt.VNet)
	for dv := lo; dv < lo+r.Cfg.VCsPerVNet; dv++ {
		if !r.busy[dv] && r.credits[dv] >= need {
			return true
		}
	}
	return false
}

// outVCs returns the flat index of the first downstream VC of vnet behind
// output out; the VNet's VCsPerVNet VCs are consecutive from there.
func (r *Router) outVCs(out topology.PortID, vnet message.VNet) int {
	return int(out)*r.nvc + r.Cfg.VCIndex(vnet, 0)
}

// grant performs VC selection (heads) and switch traversal for the winner.
func (r *Router) grant(pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := r.VCAt(pi, vi)
	f, _, _ := vc.Front()
	if vc.State == VCWaiting {
		if vc.OutPort != topology.LocalPort {
			need := int16(1)
			if r.Cfg.VCT {
				need = int16(f.Pkt.Size)
			}
			// Fixed-size candidate array (VCsPerVNet is bounded by
			// Config.Validate): a make() here would allocate on every
			// head grant.
			var free [maxVCsPerVNet]int8
			nf := 0
			base := int(vc.OutPort) * r.nvc
			lo := r.outVCs(vc.OutPort, f.Pkt.VNet)
			for dv := lo; dv < lo+r.Cfg.VCsPerVNet; dv++ {
				if !r.busy[dv] && r.credits[dv] >= need {
					free[nf] = int8(dv - base)
					nf++
				}
			}
			// VC selection: a random free downstream VC of the packet's
			// VNet (the paper's randomized VCS stage) — except under oq,
			// whose crossbar moves many heads a cycle and takes the first.
			k := 0
			if r.stage == nil {
				k = r.rng.Intn(nf)
			}
			vc.OutVC = free[k]
			r.busy[base+int(vc.OutVC)] = true
		}
		vc.State = VCActive
	}
	r.Stats.SAGrants++
	out, outVC := vc.OutPort, vc.OutVC
	f = r.PopFront(pi, vi, cycle)
	r.Stats.CrossbarTravs++
	switch {
	case out == topology.LocalPort:
		r.ports[out].sent++
		r.local.AcceptFlit(f, cycle+1)
	case r.stage != nil:
		r.stageFlit(out, outVC, f)
	default:
		r.takeCredit(out, outVC)
		r.transmit(out, outVC, f, cycle)
	}
}

// takeCredit consumes one credit of downstream VC outVC behind output out.
func (r *Router) takeCredit(out topology.PortID, outVC int8) {
	i := int(out)*r.nvc + int(outVC)
	r.credits[i]--
	if r.credits[i] < 0 {
		panic("router: sent flit without credit")
	}
}

// transmit puts f on the link behind output out, bound for downstream VC
// outVC: the link-side counters, the up-sent mark UPP's timeouts reset
// on, and the delivery itself. The caller holds the flit's credit.
func (r *Router) transmit(out topology.PortID, outVC int8, f message.Flit, cycle sim.Cycle) {
	r.Stats.LinkTravs++
	p := &r.ports[out]
	p.sent++
	if r.upPorts&(1<<uint(out)) != 0 {
		r.Stats.UpFlits++
		r.MarkUpSent(f.Pkt.VNet, cycle)
	}
	r.sink.DeliverFlit(p.nb, p.nbPort, outVC, f, cycle+1+sim.Cycle(r.Cfg.LinkLatency))
}

// creditUpstream returns a buffer slot (and optionally the whole VC) to
// whoever feeds input port pi — the upstream router, or the NI for the
// local port.
func (r *Router) creditUpstream(pi topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	p := &r.ports[pi]
	r.sink.DeliverCredit(p.nb, p.nbPort, vc, delta, free, cycle+1)
}

// --- Plugin API ------------------------------------------------------------

// PopFront is the one dequeue: it removes the front flit of (port, vc),
// returns the buffer slot upstream and, on a tail, releases the VC (the
// downstream allocation is freed by the downstream router's own tail
// departure, not here). Switch traversal calls it for every granted flit;
// scheme plugins call it to drain a VC out of band (popup circuit,
// boundary-buffer absorption) with identical credit bookkeeping.
func (r *Router) PopFront(port topology.PortID, vcIdx int, cycle sim.Cycle) message.Flit {
	vc := r.VCAt(port, vcIdx)
	f := vc.pop()
	p := &r.ports[port]
	p.buffered--
	if vc.count == 0 {
		if p.vcMask &^= 1 << uint(vcIdx); p.vcMask == 0 {
			r.occ &^= 1 << uint(port)
		}
	}
	r.buffered--
	r.Stats.BufferReads++
	tail := f.IsTail()
	if tail {
		r.releaseVC(vc, vcIdx)
	}
	r.creditUpstream(port, int8(vcIdx), 1, tail, cycle)
	return f
}

// ForceReleaseVC resets an empty VC whose packet was diverted away from it
// (popup drain of a partly-transmitted packet: the remaining flits bypass
// this VC, so its tail will never arrive to free the upstream allocation).
// Upstream learns the VC is free through a zero-delta free credit. The VC
// may still be in the Idle state — a drained head that never reached route
// computation leaves it Idle while the upstream allocation stands — so the
// free credit is sent unconditionally; the caller asserts the upstream
// allocation exists.
func (r *Router) ForceReleaseVC(port topology.PortID, vcIdx int, cycle sim.Cycle) {
	vc := r.VCAt(port, vcIdx)
	if !vc.Empty() {
		panic("router: ForceReleaseVC on non-empty VC")
	}
	r.releaseVC(vc, vcIdx)
	r.creditUpstream(port, int8(vcIdx), 0, true, cycle)
}

// AllocateOutputVC grabs a free downstream VC (with full credit) of vnet on
// output out for an out-of-band sender (e.g. remote control's boundary
// buffer). Returns -1 if none is free.
func (r *Router) AllocateOutputVC(out topology.PortID, vnet message.VNet) int8 {
	lo := r.outVCs(out, vnet)
	for dv := lo; dv < lo+r.Cfg.VCsPerVNet; dv++ {
		if !r.busy[dv] && r.credits[dv] > 0 {
			r.busy[dv] = true
			return int8(dv - int(out)*r.nvc)
		}
	}
	return -1
}

// CreditsAvailable reports whether output out has a credit for downstream
// VC outVC.
func (r *Router) CreditsAvailable(out topology.PortID, outVC int8) bool {
	return r.Out[out].Credits[outVC] > 0
}

// SendOnOutput sends f through output out into downstream VC outVC,
// consuming one credit and bypassing any output staging. The caller must
// have claimed the output and hold the allocation from AllocateOutputVC.
func (r *Router) SendOnOutput(out topology.PortID, outVC int8, f message.Flit, cycle sim.Cycle) {
	r.takeCredit(out, outVC)
	r.Stats.CrossbarTravs++
	r.transmit(out, outVC, f, cycle)
}

// SendDirect sends f through output out bypassing buffers, credits and
// allocation — circuit-switched switch traversal for popup flits and
// protocol signals. The caller must have claimed the output and is
// responsible for delivering the flit on the far side (plugins keep their
// own latches).
func (r *Router) SendDirect(out topology.PortID) {
	r.Stats.CrossbarTravs++
	if out != topology.LocalPort {
		r.Stats.LinkTravs++
		if r.upPorts&(1<<uint(out)) != 0 {
			r.Stats.UpFlits++
		}
	}
}

// EjectDirect hands a flit straight to the NI (popup ejection into a
// reserved entry). The caller must have claimed the local output.
func (r *Router) EjectDirect(f message.Flit, cycle sim.Cycle) {
	r.Stats.CrossbarTravs++
	r.local.AcceptFlit(f, cycle+1)
}
