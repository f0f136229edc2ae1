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
	// KernelNaive is the exhaustive every-component-every-cycle walk, kept
	// as the reference the equality tests compare against. Both kernels
	// produce bit-identical simulations.
	KernelNaive = "naive"
	// KernelParallel is the active kernel with blocks: the same step
	// function, whose event delivery and router walk run across a bounded
	// worker pool, with a serial commit of the walk's cross-component
	// effects (see parallel.go and DESIGN.md §9). Bit-identical to the
	// other kernels at any worker count and GOMAXPROCS.
	KernelParallel = "parallel"
)

// Config parameterizes a network instance. It is the package's only
// input: the UPP_* environment variables are resolved into it by
// experiments.NewNetwork, and nothing at or below this layer reads them.
type Config struct {
	Router router.Config
	// RouterArch selects the router microarchitecture: router.ArchIQ (the
	// default when empty), router.ArchOQ or router.ArchVOQ. All variants
	// are normalized to the same per-port buffer budget
	// (router.BufferBudget).
	RouterArch string
	// EjectionDepth is the per-VNet ejection queue capacity in packets.
	EjectionDepth int
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
	// empty), KernelNaive — the reference loop — or KernelParallel, which
	// is KernelActive's step function with its two concurrent phases on.
	Kernel string
	// Shards is the parallel kernel's worker count: the 64-router blocks
	// of the node space (the words of the awake bitmap) are dealt
	// round-robin to that many workers, the coordinating goroutine being
	// one of them. 0 means GOMAXPROCS; the value is clamped to the block
	// count. The simulation is bit-identical at every count — workers only
	// trade sync overhead against compute overlap. Ignored by the other
	// kernels, which build no blocks.
	Shards int
	// DisablePool turns off packet recycling: AllocPacket falls back to
	// plain heap allocation and nothing is released. The simulation is
	// bit-identical either way (the golden equivalence tests prove it);
	// the switch exists as a debug escape hatch and for before/after
	// allocation measurements.
	DisablePool bool
}

// DefaultConfig mirrors Table II with 1 VC per VNet.
func DefaultConfig() Config {
	return Config{Router: router.DefaultConfig(), EjectionDepth: 4, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.EjectionDepth < 1 {
		return fmt.Errorf("network: EjectionDepth must be >= 1")
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
		return fmt.Errorf("network: Shards must be >= 0")
	}
	// The event wheel must cover the longest schedulable delay: a flit's
	// pipeline traversal plus its link flight. Surfacing the bound here
	// turns ScheduleCall's runtime panic into a configuration error.
	if c.Router.LinkLatency+router.PipelineDepth >= wheelSize {
		return fmt.Errorf("network: LinkLatency %d + pipeline depth %d reaches the %d-cycle event wheel horizon",
			c.Router.LinkLatency, router.PipelineDepth, wheelSize)
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
// encoding: 2 was the retired closure event and stays reserved so
// snapshots written before its removal still decode.
const (
	evFlit       = 0
	evCredit     = 1
	evSchemeCall = 3
)

type event struct {
	kind  uint8
	to    topology.NodeID
	port  topology.PortID
	vc    int8
	delta int8
	free  bool
	// aux indexes callWheel[slot] for an evSchemeCall event (the payload
	// stays out so the struct is 32 bytes); for an evFlit event the
	// parallel kernel's pre-pass parks the OnFlitArrived delay in it.
	aux  int32
	flit message.Flit
}

// wheelSize bounds the maximum event latency (link latency + pipeline).
const wheelSize = 128

// Network is a complete simulated system.
type Network struct {
	Topo *topology.Topology
	Cfg  Config
	// Routers holds the router of every node, indexed by NodeID. There is
	// one router type whatever Cfg.RouterArch says; schemes, checkers and
	// tools read its exported state (ID, Node, Cfg, Stats, In, Out)
	// directly.
	Routers []*router.Router
	NIs     []*NI

	scheme        Scheme
	hier          *routing.Hierarchical
	routeOverride router.RouteFunc
	rng           *sim.RNG

	cycle sim.Cycle
	// wheel holds the pending events by delivery cycle. A slot owns a
	// buffer only while it holds events: draining pushes it on wheelFree
	// and an empty slot's first append pops the most recently drained
	// one, so a few cache-hot buffers rotate instead of every slot
	// keeping one grown to the high-water mark.
	wheel     [wheelSize][]event
	wheelFree [][]event
	// callWheel carries the SchemeCall payloads for evSchemeCall events in
	// the matching wheel slot; event.aux points into it.
	callWheel [wheelSize][]SchemeCall
	nextID    uint64
	tracer    Tracer

	// pool recycles packets unless Cfg.DisablePool (see
	// internal/message.Pool for the ownership protocol).
	pool message.Pool

	// Active-set scheduling state (KernelActive, KernelParallel): a
	// component is awake from the wake event that gave it work until the
	// retirement pass finds it idle. Each set is one bitmap (awakeSet), so
	// the per-cycle walk visits the awake components in ascending NodeID
	// order — the naive kernel's order — and the kernels are bit-identical.
	// awakeIDs is what AwakeRouterIDs hands the scheme: the routers that
	// survived this cycle's retirement, written by retireRouters.
	kernel   string
	routers  awakeSet
	nis      awakeSet
	awakeIDs []int32
	inNIWalk bool

	// wheelPending counts events resident in the wheel; when it is zero and
	// nothing is awake, whole cycles are provably no-ops and Run/Drain skip
	// them in one jump (see skipIdleCycles).
	wheelPending int

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

// New builds a network over t with the given scheme. The scheme's boundary
// policy governs egress selection; its hooks are wired into the cycle loop.
func New(t *topology.Topology, cfg Config, scheme Scheme) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Topo:   t,
		Cfg:    cfg,
		scheme: scheme,
		rng:    sim.NewRNG(cfg.Seed),
	}
	n.kernel = cfg.Kernel
	if n.kernel == "" {
		n.kernel = KernelActive
	}
	n.routers = newAwakeSet(t.NumNodes())
	n.nis = newAwakeSet(t.NumNodes())
	// Full capacity: retirement's appends never allocate.
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
				for k := 0; k < cfg.Router.VCsPerVNet; k++ {
					dv := cfg.Router.VCIndex(p.VNet, k)
					if !r.Out[cand].Busy[dv] {
						credits += int(r.Out[cand].Credits[dv])
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
		ni := newNI(n, node.ID, r, r.Cfg, cfg.EjectionDepth)
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

// SetLocalRouting swaps the per-layer routing algorithm at run time — the
// dynamic-reconfiguration scenario of Sec. III-C (hardware faults or power
// gating change the topology; a topology-independent scheme rebuilds its
// routing and carries on). Call it on a quiesced network: in-flight
// packets routed under the old algorithm would otherwise mix turn rules.
func (n *Network) SetLocalRouting(local routing.Local) {
	n.hier = routing.NewHierarchical(n.Topo, local)
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

// RNG exposes the network's deterministic generator for components that
// need auxiliary randomness.
func (n *Network) RNG() *sim.RNG { return n.rng }

// NewPacketID allocates a unique packet ID.
func (n *Network) NewPacketID() uint64 {
	n.nextID++
	return n.nextID
}

// AllocPacket returns a zeroed packet for injection into this network —
// recycled from the pool when pooling is enabled, freshly allocated
// otherwise. Packet producers (the traffic generator, the coherence
// PEs) allocate through it; the destination NI releases the packet
// after the PE consumes the reassembled message. Callers that keep a
// packet pointer past consumption must snapshot what they need or hold
// a generation-stamped message.PacketRef.
func (n *Network) AllocPacket() *message.Packet {
	if n.Cfg.DisablePool {
		return &message.Packet{}
	}
	return n.pool.Get()
}

// releasePacket returns a consumed packet to the pool. The only caller
// is NI.consumeStep — the single release point of the ownership
// protocol.
func (n *Network) releasePacket(p *message.Packet) {
	if n.Cfg.DisablePool {
		return
	}
	n.pool.Put(p)
}

// PacketPool exposes the network's pool for preallocation and stats
// (benchmarks, soak tests).
func (n *Network) PacketPool() *message.Pool { return &n.pool }

// Pooling reports whether packet recycling is enabled (Config.DisablePool
// turns it off).
func (n *Network) Pooling() bool { return !n.Cfg.DisablePool }

// prepare stamps routing state on a freshly enqueued packet.
func (n *Network) prepare(p *message.Packet) {
	if p.ID == 0 {
		p.ID = n.NewPacketID()
	}
	routing.Prepare(n.Topo, p, n.scheme.Policy())
}

// ScheduleCall delivers c to the scheme's OnScheduledCall hook at the
// given future cycle (plugins use this for signal and popup-flit
// timing). Calls are plain data, so a snapshot can carry the pending
// ones; delivery order within a cycle is append order in the one wheel
// slot shared with flit and credit events.
func (n *Network) ScheduleCall(cycle sim.Cycle, c SchemeCall) {
	if cycle <= n.cycle {
		panic("network: ScheduleCall in the past or present")
	}
	if cycle-n.cycle >= wheelSize {
		panic("network: ScheduleCall beyond event wheel horizon")
	}
	slot := cycle % wheelSize
	n.callWheel[slot] = append(n.callWheel[slot], c)
	n.schedule(cycle, event{kind: evSchemeCall, aux: int32(len(n.callWheel[slot]) - 1)})
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
	n.wheelPending++
}

// takeSlot empties the wheel slot of cycle and returns its events; the
// caller hands the buffer back through recycleSlot once they are applied.
func (n *Network) takeSlot(cycle sim.Cycle) []event {
	slot := cycle % wheelSize
	events := n.wheel[slot]
	n.wheel[slot] = nil
	n.wheelPending -= len(events)
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
// per-cycle walks that nothing adds to (the router walk, both retirement
// passes) consume a copy of each word; next is the walk for a set that
// grows under it (the NI walk) and for everything off the cycle's path.
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
	if !s.has(id) {
		s.words[id>>blockShift] |= 1 << (id & 63)
		s.count++
	}
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

// next returns the smallest member above after, or -1 when there is none;
// a walk starts from -1. Every call reads the words afresh, so a walk
// that adds a member above its cursor visits it in the same pass and one
// that adds at or below the cursor leaves it set for the next pass — what
// a scan over per-node flags does, and so what the naive kernel does.
// Removing the member the cursor is on is safe for the same reason.
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

// RouterActive reports whether the router at id is in the active set this
// cycle (always true under the naive kernel). Schemes use it to skip
// detection work at provably idle routers: a router outside the set holds
// no buffered flits, and its scheme-side per-router state was reset by the
// OnRouterIdle hook when it retired.
func (n *Network) RouterActive(id topology.NodeID) bool {
	return n.kernel == KernelNaive || n.routers.has(id)
}

// wakeNI puts an NI into the active set: a local-port credit at event
// delivery, or — from outside the cycle or from inside the NI walk — an
// Enqueue, a completed ejection or a reservation request.
func (n *Network) wakeNI(id topology.NodeID) { n.nis.add(id) }

// AwakeRouterIDs returns the ascending IDs of the routers left awake after
// this cycle's retirement pass, or nil under the naive kernel (where every
// router is implicitly active). It is valid during the scheme's EndOfCycle
// hook only — schemes drive detection walks with it so a mostly-idle
// large system costs O(awake), not O(total-nodes), per cycle. Callers must
// not modify the slice.
func (n *Network) AwakeRouterIDs() []int32 {
	if n.kernel == KernelNaive {
		return nil
	}
	return n.awakeIDs
}

// walkRouters steps the awake routers of blocks first, first+stride, …
// in ascending NodeID order: every awake router — the naive kernel's visit
// order — from (0, 1), one worker's share of the concurrent step phase
// from (w, workers). Routers are only woken by a flit at event delivery,
// before the walk, so the set does not change under it.
func (n *Network) walkRouters(first, stride int, cycle sim.Cycle) {
	words := n.routers.words
	for b := first; b < len(words); b += stride {
		for m := words[b]; m != 0; m &= m - 1 {
			n.Routers[b<<blockShift|bits.TrailingZeros64(m)].Step(cycle)
		}
	}
}

// walkNIs steps the awake NIs in ascending NodeID order. An NI can be
// woken mid-walk (a PE Consume callback enqueueing a reply): above the
// cursor it is stepped in this pass, at or below it in the next cycle's —
// awakeSet.next gives both, as the naive walk over all NIs does.
func (n *Network) walkNIs(cycle sim.Cycle) {
	n.inNIWalk = true
	for id := n.nis.next(-1); id >= 0; id = n.nis.next(id) {
		n.NIs[id].step(cycle)
	}
	n.inNIWalk = false
}

// retireRouters removes routers with no remaining work from the active
// set, notifying the scheme in ascending NodeID order — the order
// OnRouterIdle consumers observe — and lists the survivors for
// AwakeRouterIDs.
func (n *Network) retireRouters(cycle sim.Cycle) {
	kept := n.awakeIDs[:0]
	for b, m := range n.routers.words {
		for ; m != 0; m &= m - 1 {
			id := topology.NodeID(b<<blockShift | bits.TrailingZeros64(m))
			if n.Routers[id].Idle() {
				n.routers.remove(id)
				n.scheme.OnRouterIdle(id, cycle)
			} else {
				kept = append(kept, int32(id))
			}
		}
	}
	n.awakeIDs = kept
}

// retireNIs removes idle NIs from the active set.
func (n *Network) retireNIs() {
	for b, m := range n.nis.words {
		for ; m != 0; m &= m - 1 {
			if id := topology.NodeID(b<<blockShift | bits.TrailingZeros64(m)); n.NIs[id].Idle() {
				n.nis.remove(id)
			}
		}
	}
}

// deliverEvents drains the current wheel slot. A flit wakes the router it
// lands on and a local-port credit the NI. A credit to a router wakes
// nothing: one with buffered flits is already awake (only ReceiveFlit
// adds flits, and delivery wakes first), and an empty one would step to
// an immediate return and retire with scheme state that retirement
// already reset (DESIGN.md §7).
func (n *Network) deliverEvents(cycle sim.Cycle, wake bool) {
	events := n.takeSlot(cycle)
	slot := cycle % wheelSize
	calls := n.callWheel[slot]
	n.callWheel[slot] = calls[:0]
	for i := range events {
		e := &events[i]
		switch e.kind {
		case evFlit:
			delay := n.scheme.OnFlitArrived(e.to, e.port, e.flit, cycle)
			if wake {
				n.routers.add(e.to)
			}
			n.Routers[e.to].ReceiveFlit(e.port, e.vc, e.flit, cycle+delay)
			// Drop the packet pointer: the buffer is reused at its grown
			// capacity, and a retained entry would pin a released packet.
			e.flit.Pkt = nil
		case evCredit:
			if e.port == topology.LocalPort {
				if wake {
					n.wakeNI(e.to)
				}
				n.NIs[e.to].receiveCredit(e.vc, int(e.delta), e.free)
			} else {
				n.Routers[e.to].ReceiveCredit(e.port, e.vc, int(e.delta), e.free)
			}
		case evSchemeCall:
			n.scheme.OnScheduledCall(calls[e.aux], cycle)
		}
	}
	n.recycleSlot(events)
	// Clear the drained call payloads too — they carry flit packet refs.
	for i := range calls {
		calls[i] = SchemeCall{}
	}
}

// Step advances the system by one cycle: the reference loop under the
// naive kernel, step under the other two.
func (n *Network) Step() {
	if n.kernel == KernelNaive {
		n.stepNaive()
	} else {
		n.step()
	}
	if diagDeepAlways {
		if err := n.CheckWakeInvariant(); err != nil {
			panic(err)
		}
	}
}

// stepNaive is the exhaustive walk: every router and NI steps every cycle.
// Idle components no-op (Step early-returns on an empty router), so the
// walk is wasted work at low load — which is what the active-set kernel
// removes — but its simplicity makes it the reference the golden tests
// compare against.
func (n *Network) stepNaive() {
	cycle := n.cycle
	n.beginCycleFaults(cycle)
	n.deliverEvents(cycle, false)
	n.scheme.StartOfCycle(cycle)
	for _, r := range n.Routers {
		r.Step(cycle)
	}
	for _, ni := range n.NIs {
		ni.step(cycle)
	}
	n.scheme.EndOfCycle(cycle)
	n.foldReconfigStats()
	n.cycle++
}

// step advances one cycle stepping only awake components. Event delivery
// wakes the receiver; the walks visit awake components in ascending NodeID
// order, mid-walk NI wakes included (walkNIs) — the naive kernel's order.
// After the walks, components with no remaining work retire; a retiring
// router notifies the scheme through OnRouterIdle so per-router timeout
// state resets once instead of being re-polled every cycle.
//
// A network built with blocks (KernelParallel) runs event delivery and the
// router walk as concurrent phases when the cycle has enough of either to
// pay for the hand-off (parallel.go); KernelActive builds none, and both
// fall through to deliverEvents and the inline walk.
func (n *Network) step() {
	p, cycle := &n.par, n.cycle
	p.clock.lap(-1)
	n.beginCycleFaults(cycle)
	slot := cycle % wheelSize
	if p.blocks == nil || len(n.callWheel[slot]) > 0 || len(n.wheel[slot]) < parallelMinEvents {
		n.deliverEvents(cycle, true)
	} else {
		p.deliver(cycle)
	}
	p.clock.lap(PhaseDeliver)
	n.scheme.StartOfCycle(cycle)
	p.clock.lap(PhaseStartOfCycle)
	if p.blocks != nil && n.routers.count >= parallelMinAwake {
		p.stepPhases++
		p.inStep = true
		p.run()
		p.inStep = false
		p.clock.lap(PhaseCompute)
		p.commit()
		p.clock.lap(PhaseCommit)
	} else if n.routers.count > 0 {
		p.inlinePhases++
		n.walkRouters(0, 1, cycle)
		p.clock.lap(PhaseCompute)
	}
	n.walkNIs(cycle)
	// Retirement pass: afterwards the awake sets hold exactly the
	// components with pending work, which EndOfCycle detection (UPP's
	// RouterActive check and AwakeRouterIDs walk) relies on.
	n.retireRouters(cycle)
	n.retireNIs()
	p.clock.lap(PhaseNIRetire)
	n.scheme.EndOfCycle(cycle)
	n.foldReconfigStats()
	p.clock.lap(PhaseEndOfCycle)
	n.cycle++
}

// Run advances the network by cycles steps, batching event-wheel
// advancement across provably empty cycles (see skipIdleCycles).
func (n *Network) Run(cycles int) {
	end := n.cycle + sim.Cycle(cycles)
	for n.cycle < end {
		if n.canSkipIdleCycles() {
			n.skipIdleCycles(end)
			if n.cycle >= end {
				return
			}
		}
		n.Step()
	}
}

// canSkipIdleCycles reports whether the next cycle is provably a complete
// no-op that the clock can jump over: no component awake (so the walks and
// retirement passes would do nothing), the scheme inert (so its per-cycle
// hooks are no-ops — the scheme certifies this itself via Inert), no fault
// injector (fault plans fire on absolute cycles regardless of activity),
// and not the naive kernel (which by definition steps everything every
// cycle and is the golden reference for that behavior). Events already in
// the wheel don't block skipping — skipIdleCycles stops at the first
// non-empty slot.
func (n *Network) canSkipIdleCycles() bool {
	return n.kernel != KernelNaive && n.faults == nil &&
		n.routers.count == 0 && n.nis.count == 0 && n.scheme.Inert()
}

// skipIdleCycles advances the clock to the next cycle with a pending wheel
// event, or to limit when the wheel is empty. Skipped cycles are exactly
// the cycles Step would have spent draining an empty slot and running
// no-op hooks: nothing observable changes, so traces, stats and drain
// outcomes stay bit-identical to stepping through them one by one.
func (n *Network) skipIdleCycles(limit sim.Cycle) {
	if n.wheelPending == 0 {
		n.cycle = limit
		return
	}
	for c := n.cycle; c < limit; c++ {
		if len(n.wheel[c%wheelSize]) > 0 {
			n.cycle = c
			return
		}
	}
	n.cycle = limit
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
		if n.canSkipIdleCycles() {
			// Jump over empty cycles, but never past the point where the
			// loop's own checks (deadline, stall watchdog) would fire — the
			// continue re-runs them at the new cycle, so the drain outcome
			// and the watchdog's trigger cycle are unchanged.
			limit := deadline
			if s := n.lastEject + stallLimit + 1; s < limit {
				limit = s
			}
			if before := n.cycle; limit > before {
				n.skipIdleCycles(limit)
				if n.cycle != before {
					continue
				}
			}
		}
		n.Step()
	}
	if !n.Quiesced() {
		return fmt.Errorf("network: %d packets still in flight after %d cycles", n.InFlight(), maxCycles)
	}
	return nil
}
