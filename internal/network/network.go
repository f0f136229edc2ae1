// Package network assembles routers, links and network interfaces into a
// runnable chiplet-system NoC and advances it cycle by cycle. Deadlock
// freedom schemes (UPP, composable routing, remote control) plug in via
// the Scheme interface.
package network

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Kernel names for Config.Kernel.
const (
	// KernelActive is the active-set scheduler: only routers and NIs with
	// pending work are stepped each cycle. The default.
	KernelActive = "active"
	// KernelNaive is the oracle the equality tests compare against: the
	// same step function with every router and NI woken at the top of each
	// cycle and nothing ever retired or skipped, so every component steps
	// every cycle. All kernels produce bit-identical simulations.
	KernelNaive = "naive"
	// KernelParallel is the active kernel with blocks: the same step
	// function, whose event delivery, router walk and retirement run
	// across a bounded worker pool, each block on the worker that owns it,
	// with a serial replay of the walk's ejections (see parallel.go and
	// DESIGN.md §9). Bit-identical to the other kernels at any worker
	// count and GOMAXPROCS.
	KernelParallel = "parallel"
)

// Config parameterizes a network instance. It is the package's only
// input: experiments.Assemble fills it from a RunSpec, and no layer reads
// the process environment for it.
type Config struct {
	Router router.Config
	// RouterArch selects the router microarchitecture: router.ArchIQ (the
	// default when empty), router.ArchOQ or router.ArchVOQ. All variants
	// are normalized to the same per-port buffer budget
	// (router.BufferBudget).
	RouterArch string
	// Seed drives all randomized decisions (VC selection, traffic).
	Seed uint64
	// UseUpDown selects up*/down* local routing instead of XY (needed on
	// faulty systems).
	UseUpDown bool
	// Adaptive selects minimal-adaptive odd-even local routing with
	// credit-aware output selection — the "fully adaptive network" UPP's
	// recovery framework enables (deadlock-free within each layer by the
	// odd-even turn model; integration-induced deadlocks recovered by the
	// scheme). Mutually exclusive with UseUpDown.
	Adaptive bool
	// Kernel selects the cycle kernel: KernelActive (the default when
	// empty), KernelNaive — the oracle — or KernelParallel, which
	// is KernelActive's step function with its concurrent phases on.
	Kernel string
	// Shards is the parallel kernel's worker count: the 64-router blocks
	// of the node space (the words of the awake bitmap) are dealt
	// round-robin to that many workers, the coordinating goroutine being
	// one of them. 0 means GOMAXPROCS; the value is clamped to the block
	// count. The simulation is bit-identical at every count — workers only
	// trade sync overhead against compute overlap. Ignored by the other
	// kernels, which build no blocks.
	Shards int
}

// DefaultConfig mirrors Table II with 1 VC per VNet.
func DefaultConfig() Config {
	return Config{Router: router.DefaultConfig(), Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.UseUpDown && c.Adaptive {
		return fmt.Errorf("network: UseUpDown and Adaptive are mutually exclusive")
	}
	switch c.Kernel {
	case "", KernelActive, KernelNaive, KernelParallel:
	default:
		return fmt.Errorf("network: unknown kernel %q (want %q, %q or %q)", c.Kernel, KernelActive, KernelNaive, KernelParallel)
	}
	// An unknown arch name and arch-specific infeasibility (oq needs a
	// splittable depth and no VCT) both surface here rather than
	// mid-construction.
	if _, err := router.LayoutFor(c.arch(), c.Router); err != nil {
		return err
	}
	if c.Shards < 0 {
		return fmt.Errorf("network: Shards is %d; want >= 0 (0 = GOMAXPROCS)", c.Shards)
	}
	return nil
}

// arch resolves RouterArch's empty default.
func (c Config) arch() string {
	if c.RouterArch == "" {
		return router.ArchIQ
	}
	return c.RouterArch
}

// event kinds in the delivery wheel. The values are the UPWS wire
// encoding, where a slot's SchemeCalls are records of kind evCall (they
// are never events); 2 was the retired closure event and stays reserved
// so snapshots written before its removal still decode.
const (
	evFlit   = 0
	evCredit = 1
	evCall   = 3
)

type event struct {
	kind  uint8
	to    topology.NodeID
	port  topology.PortID
	vc    int8
	delta int8
	free  bool
	flit  message.Flit
}

// wheelSize bounds the maximum event latency (link latency + pipeline).
const wheelSize = 128

// The wheel must cover the longest schedulable delay, a flit's pipeline
// traversal plus its link flight: this array length is negative, and the
// package does not compile, if it does not.
var _ [wheelSize - router.PipelineDepth - router.LinkDelay - 1]struct{}

// ejectionDepth is the per-VNet ejection queue capacity in packets.
const ejectionDepth = 4

// Network is a complete simulated system.
type Network struct {
	Topo *topology.Topology
	Cfg  Config
	// Routers holds the router of every node, indexed by NodeID. There is
	// one router type whatever Cfg.RouterArch says; schemes, checkers and
	// tools read its exported state (ID, Node, Cfg, Stats) directly, and
	// its ports through NumPorts, InVCs, OutCredits and OutBusy.
	Routers []*router.Router
	NIs     []*NI

	scheme        Scheme
	hier          *routing.Hierarchical
	routeOverride router.RouteFunc
	rng           *sim.RNG
	// What a scheme installs in Attach besides routeOverride: the egress
	// boundary selection stamped on every enqueued packet, the extra
	// buffer-write delay of an inter-chiplet flit entering a boundary
	// router, and the gate on starting a packet's injection (nil admits
	// every packet).
	policy        routing.BoundaryPolicy
	crossingDelay sim.Cycle
	injectGate    func(p *message.Packet, cycle sim.Cycle) bool

	cycle sim.Cycle
	// wheel holds the pending events by delivery cycle. A slot owns a
	// buffer only while it holds events: draining pushes it on wheelFree
	// and an empty slot's first append pops the most recently drained
	// one, so a few cache-hot buffers rotate instead of every slot
	// keeping one grown to the high-water mark.
	wheel     [wheelSize][]event
	wheelFree [][]event
	// callWheel holds the pending SchemeCalls by delivery cycle, in
	// scheduling order; a slot's calls run after its flits and credits.
	callWheel [wheelSize][]SchemeCall
	nextID    uint64
	tracer    Tracer

	// pool recycles packets (see internal/message.Pool for the ownership
	// protocol). noPool allocates every packet fresh instead: the reference
	// the pooled run is compared against, which only this package's tests
	// set (export_test.go).
	pool   message.Pool
	noPool bool

	// Active-set scheduling state: a component is awake from the wake
	// event that gave it work until retirement finds it idle — a router in
	// the walk that steps it, an NI in the pass after the NI walk. Each
	// set is one bitmap (awakeSet), so the per-cycle walk visits the awake
	// components in ascending NodeID order. awakeIDs is what AwakeRouterIDs
	// hands the scheme: the routers that survived this cycle's walk.
	// The oracle (KernelNaive) wakes everything at the top of every cycle
	// and retires nothing.
	kernel   string
	oracle   bool
	routers  awakeSet
	nis      awakeSet
	awakeIDs []int32
	inNIWalk bool

	// The concurrent phases' state (see parallel.go): blocks and workers
	// under KernelParallel, only telemetry under the other kernels.
	par parallel

	Stats   Stats
	latHist LatencyHistogram

	// lastEject supports deadlock detection in tests and the drain loop.
	lastEject sim.Cycle

	// faults is the optional runtime fault injector (nil in healthy runs;
	// see faultinject.go and internal/faults).
	faults FaultInjector

	// Dynamic-reconfiguration state (reconfigctl.go, internal/reconfig).
	// routeEpoch is the current routing epoch; prevHier holds the previous
	// epoch's tables while packets stamped with the old epoch are still in
	// flight. epochLive counts live packets per epoch parity (at most two
	// epochs coexist — the engine serializes transitions); routeMigrations
	// counts lazy old→new migrations. Both are atomics because Route runs
	// on compute workers under the parallel kernel; they are folded into
	// Stats coordinator-side at the end of every cycle (foldReconfigStats)
	// so Stats stay bit-identical across kernels.
	routeEpoch      uint32
	prevHier        *routing.Hierarchical
	injectHold      bool
	fencedLinks     int
	epochLive       [2]atomic.Int64
	routeMigrations atomic.Uint64
	// restoring suppresses fault-injector side effects while ReadSnapshot
	// resyncs the injector's cursor (see snapshot.go and reconfig.Engine).
	restoring bool
}

// New builds a network over t with the given scheme: its hooks are wired
// into the cycle loop, and its Attach installs what it varies of the
// datapath (the egress boundary policy defaults to the paper's static
// binding).
func New(t *topology.Topology, cfg Config, scheme Scheme) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Topo:   t,
		Cfg:    cfg,
		scheme: scheme,
		rng:    sim.NewRNG(cfg.Seed),
		policy: routing.DefaultPolicy{},
	}
	n.kernel = cfg.Kernel
	if n.kernel == "" {
		n.kernel = KernelActive
	}
	n.oracle = n.kernel == KernelNaive
	n.routers = newAwakeSet(t.NumNodes())
	n.nis = newAwakeSet(t.NumNodes())
	// Full capacity: the walk's appends never allocate.
	n.awakeIDs = make([]int32, 0, t.NumNodes())
	// The free stack can hold every slot's buffer: a push never allocates.
	n.wheelFree = make([][]event, 0, wheelSize)
	for i := range n.callWheel {
		n.callWheel[i] = make([]SchemeCall, 0, 4)
	}
	var local routing.Local
	switch {
	case cfg.UseUpDown:
		ud, err := routing.NewUpDown(t)
		if err != nil {
			return nil, err
		}
		local = ud
	case cfg.Adaptive:
		// Minimal-adaptive odd-even routing with credit-aware selection:
		// prefer the candidate output whose downstream VCs have the most
		// free credits for the packet's VNet.
		local = routing.NewOddEven(t, func(cur topology.NodeID, candidates []topology.PortID, p *message.Packet) topology.PortID {
			best := candidates[0]
			bestCredits := -1
			r := n.Routers[cur]
			for _, cand := range candidates {
				credits := 0
				free, busy := r.OutCredits(cand), r.OutBusy(cand)
				for k := 0; k < cfg.Router.VCsPerVNet; k++ {
					dv := cfg.Router.VCIndex(p.VNet, k)
					if !busy[dv] {
						credits += int(free[dv])
					}
				}
				if credits > bestCredits {
					bestCredits = credits
					best = cand
				}
			}
			return best
		})
	default:
		local = routing.NewXY(t)
	}
	n.hier = routing.NewHierarchical(t, local)
	route := func(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error) {
		return n.Route(cur, inPort, p)
	}
	n.Routers = make([]*router.Router, t.NumNodes())
	n.NIs = make([]*NI, t.NumNodes())
	// One slab per kind of router state for the system (DESIGN.md §8).
	arena, err := router.NewArena(cfg.arch(), cfg.Router, t.Nodes)
	if err != nil {
		return nil, err
	}
	for i := range t.Nodes {
		node := &t.Nodes[i]
		r, err := router.New(cfg.arch(), node, cfg.Router, n, nil, route, n.rng.Split(uint64(i)), arena)
		if err != nil {
			return nil, err
		}
		// The NI mirrors the router's effective input-side config: its
		// credit counters must match the local port's actual VC depth,
		// which oq reduces below the budget depth.
		ni := newNI(n, node.ID, r, r.Cfg, ejectionDepth)
		r.SetLocal(ni)
		n.Routers[i] = r
		n.NIs[i] = ni
	}
	if n.kernel == KernelParallel {
		n.initParallel(cfg.Shards)
	}
	scheme.Attach(n)
	return n, nil
}

// MustNew is New for known-good configurations.
func MustNew(t *topology.Topology, cfg Config, scheme Scheme) *Network {
	n, err := New(t, cfg, scheme)
	if err != nil {
		panic(fmt.Sprintf("network: MustNew(%d-node topology, scheme %q, kernel %q): %v",
			t.NumNodes(), scheme.Name(), cfg.Kernel, err))
	}
	return n
}

// Scheme returns the attached deadlock-freedom scheme.
func (n *Network) Scheme() Scheme { return n.scheme }

// Hier returns the hierarchical routing function (plugins route protocol
// signals with it).
func (n *Network) Hier() *routing.Hierarchical { return n.hier }

// SetRouteOverride replaces the default hierarchical routing with a
// scheme-provided route function (composable routing's turn-restricted
// tables). Schemes call it from Attach.
func (n *Network) SetRouteOverride(f router.RouteFunc) { n.routeOverride = f }

// SetBoundaryPolicy replaces the static binding as the egress boundary
// selection of packets enqueued from now on (UPP's ablation bindings).
// Schemes call it from Attach.
func (n *Network) SetBoundaryPolicy(p routing.BoundaryPolicy) { n.policy = p }

// SetCrossingDelay charges d extra cycles to the buffer write of every
// flit of an inter-chiplet packet that enters a boundary router (remote
// control's separate VC-allocation stage there). Schemes call it from
// Attach.
func (n *Network) SetCrossingDelay(d sim.Cycle) { n.crossingDelay = d }

// SetInjectionGate makes an NI start injecting the packet at the front of
// an injection queue only once gate returns true; it is asked once per
// cycle until then (remote control's injection control). Schemes call it
// from Attach.
func (n *Network) SetInjectionGate(gate func(p *message.Packet, cycle sim.Cycle) bool) {
	n.injectGate = gate
}

// arrivalDelay is the extra buffer-write delay of a flit of p at node: the
// crossing delay when an inter-chiplet packet enters a boundary router.
func (n *Network) arrivalDelay(node topology.NodeID, p *message.Packet) sim.Cycle {
	if n.crossingDelay != 0 && p.EgressBoundary != topology.InvalidNode &&
		n.Topo.Nodes[node].Kind == topology.BoundaryRouter {
		return n.crossingDelay
	}
	return 0
}

// Route computes the output port for p at router cur with input port
// inPort — the same function the routers' route-computation stage uses.
// Scheme plugins route protocol signals and popup paths with it.
func (n *Network) Route(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error) {
	if n.routeOverride != nil {
		return n.routeOverride(cur, inPort, p)
	}
	if n.prevHier != nil && p.Epoch != n.routeEpoch {
		// The packet was injected under the previous routing epoch: keep
		// routing it with the old tables (UPR-style coexistence — the
		// engine proved, or UPP nets, old∪new CDG safety). If the old
		// route would cross a fenced port (a link about to be cut), the
		// packet migrates onto the current epoch's tables instead.
		port, err := n.prevHier.NextPort(cur, p)
		if err == nil && port != topology.LocalPort && n.Routers[cur].PortFenced(port) {
			n.migratePacket(p)
			return n.hier.NextPort(cur, p)
		}
		return port, err
	}
	return n.hier.NextPort(cur, p)
}

// migratePacket moves a live packet from the previous routing epoch onto
// the current one. DownPhase resets: the new tables may legally route the
// packet back up through the interposer, and the up*/down* invariant only
// has to hold per routing function, not across the splice (transient
// cross-epoch cycles are exactly what UPP recovers during a transition).
func (n *Network) migratePacket(p *message.Packet) {
	old := p.Epoch
	p.Epoch = n.routeEpoch
	p.DownPhase = false
	n.epochLive[old&1].Add(-1)
	n.epochLive[p.Epoch&1].Add(1)
	n.routeMigrations.Add(1)
}

// foldReconfigStats publishes the worker-side migration counter into
// Stats. Called coordinator-side at the end of every cycle under all
// three kernels, so Stats remain bit-identical across them.
func (n *Network) foldReconfigStats() {
	n.Stats.RouteMigrations = n.routeMigrations.Load()
}

// Cycle returns the current simulation time.
func (n *Network) Cycle() sim.Cycle { return n.cycle }

// NewPacketID allocates a unique packet ID.
func (n *Network) NewPacketID() uint64 {
	n.nextID++
	return n.nextID
}

// AllocPacket returns a zeroed packet for injection into this network,
// recycled from the pool. Packet producers (the traffic generator, the
// coherence PEs) allocate through it; the destination NI releases the
// packet after the PE consumes the reassembled message. Callers that keep a
// packet pointer past consumption must snapshot what they need and its
// Generation(), as UPP's popups do.
func (n *Network) AllocPacket() *message.Packet {
	if n.noPool {
		return &message.Packet{}
	}
	return n.pool.Get()
}

// releasePacket returns a consumed packet to the pool. The only caller
// is NI.consumeStep — the single release point of the ownership
// protocol.
func (n *Network) releasePacket(p *message.Packet) {
	if n.noPool {
		return
	}
	n.pool.Put(p)
}

// PacketPool exposes the network's pool for preallocation and stats
// (benchmarks, soak tests).
func (n *Network) PacketPool() *message.Pool { return &n.pool }

// prepare stamps routing state on a freshly enqueued packet.
func (n *Network) prepare(p *message.Packet) {
	if p.ID == 0 {
		p.ID = n.NewPacketID()
	}
	routing.Prepare(n.Topo, p, n.policy)
}

// ScheduleCall delivers c to the scheme's OnScheduledCall hook at the
// given future cycle (plugins use this for signal and popup-flit
// timing). Calls are plain data, so a snapshot can carry the pending
// ones. A cycle's calls run in the order they were scheduled, after all
// of the cycle's flits and credits are applied.
func (n *Network) ScheduleCall(cycle sim.Cycle, c SchemeCall) {
	if cycle <= n.cycle {
		panic("network: ScheduleCall in the past or present")
	}
	if cycle-n.cycle >= wheelSize {
		panic("network: ScheduleCall beyond event wheel horizon")
	}
	slot := cycle % wheelSize
	n.callWheel[slot] = append(n.callWheel[slot], c)
}

// schedule appends e to the wheel slot of its delivery cycle.
func (n *Network) schedule(cycle sim.Cycle, e event) {
	slot := cycle % wheelSize
	buf := n.wheel[slot]
	if buf == nil {
		if k := len(n.wheelFree); k > 0 {
			buf, n.wheelFree = n.wheelFree[k-1], n.wheelFree[:k-1]
		} else {
			buf = make([]event, 0, 16)
		}
	}
	n.wheel[slot] = append(buf, e)
}

// takeSlot empties the wheel slot of cycle and returns its events; the
// caller hands the buffer back through recycleSlot once they are applied,
// then runs or drops the slot's calls.
func (n *Network) takeSlot(cycle sim.Cycle) []event {
	slot := cycle % wheelSize
	events := n.wheel[slot]
	n.wheel[slot] = nil
	return events
}

// recycleSlot puts a drained slot buffer on the free stack.
func (n *Network) recycleSlot(events []event) {
	if events != nil {
		n.wheelFree = append(n.wheelFree, events[:0])
	}
}

// DeliverFlit implements router.EventSink.
func (n *Network) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	n.schedule(cycle, event{kind: evFlit, to: to, port: port, vc: vc, flit: f})
}

// DeliverCredit implements router.EventSink.
func (n *Network) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	n.schedule(cycle, event{kind: evCredit, to: to, port: port, vc: vc, delta: int8(delta), free: free})
}

// deliverLocalFlit carries an NI-injected flit to its router's local input
// port.
func (n *Network) deliverLocalFlit(node topology.NodeID, vc int8, f message.Flit, cycle sim.Cycle) {
	n.DeliverFlit(node, topology.LocalPort, vc, f, cycle)
}

// NI returns the network interface at node id.
func (n *Network) NI(id topology.NodeID) *NI { return n.NIs[id] }

// Router returns the router at node id (Routers[id]).
func (n *Network) Router(id topology.NodeID) *router.Router { return n.Routers[id] }

// Kernel returns the resolved cycle-kernel name (KernelActive,
// KernelNaive or KernelParallel).
func (n *Network) Kernel() string { return n.kernel }

// RouterArch returns the resolved router microarchitecture name
// (router.ArchIQ, router.ArchOQ or router.ArchVOQ).
func (n *Network) RouterArch() string { return n.Cfg.arch() }

// awakeSet is a set of NodeIDs held as a bitmap. Word b covers NodeIDs
// 64b to 64b+63 — the parallel kernel's block b — and the members come out
// in ascending order by TrailingZeros64, so no walk ever sorts. The
// per-cycle walks that nothing adds to (the router walk, NI retirement)
// consume a copy of each word; next is the walk for a set that grows
// under it (the NI walk) and for everything off the cycle's path.
type awakeSet struct {
	words []uint64
	count int
}

func newAwakeSet(nodes int) awakeSet {
	return awakeSet{words: make([]uint64, (nodes+63)>>blockShift)}
}

func (s *awakeSet) has(id topology.NodeID) bool {
	return s.words[id>>blockShift]&(1<<(id&63)) != 0
}

func (s *awakeSet) add(id topology.NodeID) {
	if s.mark(id) {
		s.count++
	}
}

// mark sets id's bit and reports whether it was clear, leaving count to
// the caller: the parallel kernel's workers set bits in the words of
// their own blocks and count the new members in their shards.
func (s *awakeSet) mark(id topology.NodeID) bool {
	w := &s.words[id>>blockShift]
	if *w&(1<<(id&63)) != 0 {
		return false
	}
	*w |= 1 << (id & 63)
	return true
}

func (s *awakeSet) remove(id topology.NodeID) {
	if s.has(id) {
		s.words[id>>blockShift] &^= 1 << (id & 63)
		s.count--
	}
}

func (s *awakeSet) clear() {
	clear(s.words)
	s.count = 0
}

// fill makes every NodeID below nodes a member.
func (s *awakeSet) fill(nodes int) {
	for b := range s.words {
		s.words[b] = ^uint64(0)
	}
	if r := nodes & 63; r != 0 {
		s.words[len(s.words)-1] = 1<<r - 1
	}
	s.count = nodes
}

// next returns the smallest member above after, or -1 when there is none;
// a walk starts from -1. Every call reads the words afresh, so a walk
// that adds a member above its cursor visits it in the same pass and one
// that adds at or below the cursor leaves it set for the next pass — what
// a scan over per-node flags does. Removing the member the cursor is on
// is safe for the same reason.
func (s *awakeSet) next(after topology.NodeID) topology.NodeID {
	from := after + 1
	b := int(from >> blockShift)
	if b >= len(s.words) {
		return -1
	}
	m := s.words[b] &^ (1<<(from&63) - 1)
	for m == 0 {
		if b++; b == len(s.words) {
			return -1
		}
		m = s.words[b]
	}
	return topology.NodeID(b<<blockShift | bits.TrailingZeros64(m))
}

// wakeNI puts an NI into the active set: a local-port credit at event
// delivery, or — from outside the cycle or from inside the NI walk — an
// Enqueue, a completed ejection or a reservation request.
func (n *Network) wakeNI(id topology.NodeID) { n.nis.add(id) }

// AwakeRouterIDs returns the ascending IDs of the routers left awake after
// this cycle's router walk — every router under the oracle. A router
// not listed holds no buffered flits. What a scheme keeps for it from
// before it retired is stale until the router is listed again, and the
// flit that wakes it is not ready before the next cycle, so the first look
// at a woken router finds no stalled head (DESIGN.md §7). It is valid
// during the scheme's EndOfCycle hook only — schemes drive detection walks
// with it so a mostly-idle large system costs O(awake), not
// O(total-nodes), per cycle.
// Callers must not modify the slice.
func (n *Network) AwakeRouterIDs() []int32 { return n.awakeIDs }

// wakeAll is the oracle's top of cycle: every router and NI joins the
// active set and AwakeRouterIDs lists every router.
func (n *Network) wakeAll() {
	n.routers.fill(len(n.Routers))
	n.nis.fill(len(n.NIs))
	// The list is ascending and duplicate-free: full length is every ID.
	if len(n.awakeIDs) < len(n.Routers) {
		n.awakeIDs = n.awakeIDs[:len(n.Routers)]
		for i := range n.awakeIDs {
			n.awakeIDs[i] = int32(i)
		}
	}
}

// walkRouters is the inline router walk. It steps the awake routers in
// ascending NodeID order, retires each one its step left idle and lists
// the others for AwakeRouterIDs — on a network with blocks block by block,
// into the lists ForEachBlock hands out. Routers are only woken by a flit
// at event delivery (or by the oracle's wake-all), before the walk, so the
// set does not change under it. The oracle steps every router and retires
// none.
func (n *Network) walkRouters(cycle sim.Cycle) {
	if n.oracle {
		for _, id := range n.awakeIDs {
			n.Routers[id].Step(cycle)
		}
		return
	}
	if blocks := n.par.blocks; blocks != nil {
		for b := range blocks {
			var gone int
			blocks[b].awake, gone = n.stepBlock(b, cycle, blocks[b].awake[:0])
			n.routers.count -= gone
		}
		n.par.listAwake()
		return
	}
	kept := n.awakeIDs[:0]
	for b := range n.routers.words {
		var gone int
		kept, gone = n.stepBlock(b, cycle, kept)
		n.routers.count -= gone
	}
	n.awakeIDs = kept
}

// stepBlock steps the awake routers of block b (NodeIDs 64b to 64b+63) in
// ascending order: one step of the inline walk, or of a worker's share of
// the concurrent step phase. A router its Step left idle leaves the awake
// set; the others are appended to kept. It returns kept and the number of
// routers retired. Retiring here is exact: nothing between a router's Step
// and the scheme's EndOfCycle — later routers' steps, the ejection replay,
// the NI walk — adds a flit to it or takes one away. It touches only block
// b's routers and bitmap word, and writes the word only when it changes,
// so the owners of different blocks can run it at once.
func (n *Network) stepBlock(b int, cycle sim.Cycle, kept []int32) ([]int32, int) {
	var gone uint64
	for m := n.routers.words[b]; m != 0; m &= m - 1 {
		id := b<<blockShift | bits.TrailingZeros64(m)
		r := n.Routers[id]
		r.Step(cycle)
		if r.Idle() {
			gone |= m & -m
		} else {
			kept = append(kept, int32(id))
		}
	}
	if gone == 0 {
		return kept, 0
	}
	n.routers.words[b] &^= gone
	return kept, bits.OnesCount64(gone)
}

// walkNIs steps the awake NIs in ascending NodeID order. An NI can be
// woken mid-walk (a PE Consume callback enqueueing a reply): above the
// cursor it is stepped in this pass, at or below it in the next cycle's —
// awakeSet.next gives both.
func (n *Network) walkNIs(cycle sim.Cycle) {
	n.inNIWalk = true
	for id := n.nis.next(-1); id >= 0; id = n.nis.next(id) {
		n.NIs[id].step(cycle)
	}
	n.inNIWalk = false
}

// retireNIs removes the NIs with no remaining work from the awake set. It
// is a pass of its own after the NI walk, not part of it, because a PE's
// Consume during the walk can give work to an NI below the walk's cursor.
func (n *Network) retireNIs() {
	for b, w := range n.nis.words {
		var gone uint64
		for m := w; m != 0; m &= m - 1 {
			if n.NIs[b<<blockShift|bits.TrailingZeros64(m)].Idle() {
				gone |= m & -m
			}
		}
		if gone != 0 {
			n.nis.words[b] &^= gone
			n.nis.count -= bits.OnesCount64(gone)
		}
	}
}

// deliverEvents drains the current wheel slot: its flits and credits in
// any order (DESIGN.md §9), then its calls. A flit wakes the router it
// lands on and a local-port credit the NI. A credit to a router wakes
// nothing: one with buffered flits is already awake (only ReceiveFlit
// adds flits, and delivery wakes first), and an empty one would step to
// an immediate return and retire before the scheme's EndOfCycle could
// read it (DESIGN.md §7).
func (n *Network) deliverEvents(cycle sim.Cycle) {
	events := n.takeSlot(cycle)
	for i := range events {
		e := &events[i]
		switch e.kind {
		case evFlit:
			n.routers.add(e.to)
			n.Routers[e.to].ReceiveFlit(e.port, e.vc, e.flit, cycle+n.arrivalDelay(e.to, e.flit.Pkt))
			// Drop the packet pointer: the buffer is reused at its grown
			// capacity, and a retained entry would pin a released packet.
			e.flit.Pkt = nil
		case evCredit:
			if e.port == topology.LocalPort {
				n.wakeNI(e.to)
				n.NIs[e.to].receiveCredit(e.vc, int(e.delta), e.free)
			} else {
				n.Routers[e.to].ReceiveCredit(e.port, e.vc, int(e.delta), e.free)
			}
		}
	}
	n.recycleSlot(events)
	n.runCalls(cycle)
}

// runCalls hands the current slot's SchemeCalls to the scheme in the
// order they were scheduled. A call can schedule only later cycles, so
// the slot does not grow while it runs.
func (n *Network) runCalls(cycle sim.Cycle) {
	slot := cycle % wheelSize
	calls := n.callWheel[slot]
	for i := range calls {
		n.scheme.OnScheduledCall(calls[i], cycle)
	}
	clear(calls) // they carry flit packet refs
	n.callWheel[slot] = calls[:0]
}

// Step advances the system by one cycle, stepping only awake components.
// Event delivery wakes the receiver; the walks visit awake components in
// ascending NodeID order, mid-walk NI wakes included (walkNIs). Components
// with no remaining work retire — a router in the walk that steps it, an
// NI in the pass after the NI walk — and the scheme's per-router state is
// not read at a retired router until a flit wakes it.
//
// The oracle (KernelNaive) is this function with every router and NI woken
// at the top of the cycle and retirement skipped: it steps and lists every
// component every cycle, so it does not depend on the wake rule or
// retirement it checks.
//
// A network built with blocks (KernelParallel) runs event delivery and the
// router walk as concurrent phases when the cycle has enough work to pay
// for the hand-off (parallel.go); the other kernels build none and run
// deliverEvents and the inline walk on the coordinator.
func (n *Network) Step() {
	p, cycle := &n.par, n.cycle
	p.clock.lap(-1)
	if n.oracle {
		n.wakeAll()
	}
	n.beginCycleFaults(cycle)
	if p.blocks == nil {
		n.deliverEvents(cycle)
	} else {
		p.deliver(cycle)
	}
	p.clock.lap(PhaseDeliver)
	n.scheme.StartOfCycle(cycle)
	p.clock.lap(PhaseStartOfCycle)
	if p.blocks != nil && n.routers.count >= parallelMinAwake {
		p.stepPhases++
		p.run(phaseStep)
		p.clock.lap(PhaseCompute)
		p.commit()
		p.clock.lap(PhaseCommit)
	} else {
		if n.routers.count > 0 {
			p.inlinePhases++
		}
		n.walkRouters(cycle)
		p.clock.lap(PhaseCompute)
	}
	n.walkNIs(cycle)
	// Afterwards the awake sets hold exactly the components with pending
	// work — all of them under the oracle — which EndOfCycle detection
	// (UPP's AwakeRouterIDs walk) relies on.
	if !n.oracle {
		n.retireNIs()
	}
	p.clock.lap(PhaseNIRetire)
	n.scheme.EndOfCycle(cycle)
	n.foldReconfigStats()
	p.clock.lap(PhaseEndOfCycle)
	n.cycle++
	if message.Debug {
		if err := n.CheckWakeInvariant(); err != nil {
			panic(err)
		}
	}
}

// Run advances the network by cycles steps.
func (n *Network) Run(cycles int) {
	for range cycles {
		n.Step()
	}
}

// recordEjected updates latency statistics when a packet fully ejects.
func (n *Network) recordEjected(p *message.Packet, cycle sim.Cycle) {
	n.lastEject = cycle
	n.epochLive[p.Epoch&1].Add(-1)
	n.Stats.EjectedPackets++
	if p.BirthCycle >= n.Stats.MeasureStart {
		n.Stats.MeasuredPackets++
		n.Stats.NetLatencySum += uint64(p.EjectCycle - p.InjectCycle)
		n.Stats.QueueLatencySum += uint64(p.InjectCycle - p.BirthCycle)
		n.latHist.Add(uint64(p.EjectCycle - p.BirthCycle))
	}
}

// InFlight counts packets born but not yet consumed by their destination
// PE, including injection-queue occupancy and packets awaiting
// consumption in ejection queues.
func (n *Network) InFlight() int {
	return int(n.Stats.BornPackets - n.Stats.ConsumedPackets)
}

// Quiesced reports whether nothing is in flight.
func (n *Network) Quiesced() bool { return n.InFlight() == 0 }

// Drain runs until the network quiesces or maxCycles elapse; it returns an
// error when progress stops for stallLimit cycles (a real deadlock under
// schemes without recovery, or a bug elsewhere).
func (n *Network) Drain(maxCycles int, stallLimit sim.Cycle) error {
	deadline := n.cycle + sim.Cycle(maxCycles)
	n.lastEject = n.cycle
	for n.cycle < deadline {
		if n.Quiesced() {
			return nil
		}
		if n.cycle-n.lastEject > stallLimit {
			// The watchdog: a structured diagnostic (diag.go) whose first
			// line keeps the historical message.
			return n.stallDiagnostic(stallLimit)
		}
		n.Step()
	}
	if !n.Quiesced() {
		return fmt.Errorf("network: %d packets still in flight after %d cycles", n.InFlight(), maxCycles)
	}
	return nil
}
