// The blocks every network is built on, and the concurrent phases of
// Network.Step they carry at two or more workers (KernelParallel); DESIGN.md
// §9 has the argument.
//
// The node space is cut into fixed 64-router blocks — block b is word b of
// the awake bitmaps — dealt for the life of the network to the workers
// (one under KernelActive and KernelNaive, Config.Shards under
// KernelParallel) in bands of interposer rows, each band with the chiplets
// above it (dealBlocks), so most links join two routers of one worker;
// worker 0 is the coordinating goroutine, the others come from a
// package-level pool. One worker runs every phase inline, its routers
// emitting straight to the wheel: that is the active kernel, and the
// oracle is the same walk with everything woken and nothing retired.
// Every pass over routers and NIs that can run per block runs on
// the worker that owns the block, walking its ascending list of blocks,
// which keeps a router's state in one core's cache; the coordinator keeps
// the work whose order matters. Deliver: the coordinator adds the central
// wheel slot's flits and credits to its outboxes for their receivers'
// workers, and every worker applies the outboxes addressed to it, waking
// its own routers and NIs; a slot's flits and credits commute, so no
// worker needs another's order, and the coordinator runs the slot's
// SchemeCalls after the join. Step: after the scheme's
// StartOfCycle every worker steps the awake routers of its blocks in
// ascending NodeID order; Router.Step's concurrency contract keeps a step
// to the router's own state, its flits and credits go to the stepping
// worker's outboxes, split by the worker that owns the receiver, and its
// ejections to the block's log, which the commit replays in ascending
// block order. The step retires each router it leaves idle and lists its
// block's survivors (Network.stepBlock); the commit concatenates the lists
// into AwakeRouterIDs, as the inline walk builds it. ForEachBlock runs a
// scheme's per-block pass (UPP's detection scan) the same way, over each
// block's part of that list. The NI walk and NI retirement stay on the
// coordinator.
//
// Whatever reads a whole wheel slot — a snapshot, the state checks —
// first appends the slot's outboxes to it (mergeSlot); a snapshot
// writes the slot in canonical order, so the worker count leaves no trace.
package network

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

const (
	// Engagement thresholds at two or more workers: a cycle with fewer
	// awake routers steps them and runs ForEachBlock's blocks inline, and a
	// slot with fewer flits and credits runs every worker's delivery share
	// inline — a hand-off would cost more.
	parallelMinAwake  = 16
	parallelMinEvents = 64
	// blockShift sizes the blocks: 64 NodeIDs, one awakeSet word, small
	// enough that a band of them follows the system's rows closely. A
	// block's routers share one slot pool, which is why it is the
	// router's PoolShift.
	blockShift = router.PoolShift
	// spinBound is how long a waiter polls before it parks: longer than
	// the serial stretch between two concurrent phases of a large
	// system's cycle (the traffic source, the NI walk and the scheme
	// hooks, ~60 us on 8192 routers), so a dedicated run never parks
	// mid-cycle.
	spinBound = time.Millisecond
)

// The work a share of a concurrent phase does (parallel.phase).
const (
	phaseNone = iota
	phaseDeliver
	phaseStep
	phaseBlocks
)

// ejection is a logged NI.AcceptFlit of the step phase.
type ejection struct {
	ni   topology.NodeID
	at   sim.Cycle
	flit message.Flit
}

// block is the per-cycle state of 64 consecutive NodeIDs, written during
// the concurrent phases only by the worker that owns them and read by the
// coordinator after the join. At two or more workers it is its routers'
// EventSink: during the step phase emissions go to the owner's outboxes,
// outside it (scheme plugin API, inline walk) straight to the network; at
// one worker the routers keep the network as their sink. NI.AcceptFlit logs
// the step phase's ejections the same way.
type block struct {
	p     *parallel
	shard *shard // the owner's
	// ejects is the step phase's ejections in emission order.
	ejects []ejection
	// awake is the routers the concurrent step phase left awake, which
	// the commit copies into AwakeRouterIDs.
	awake []int32
}

// DeliverFlit implements router.EventSink.
func (b *block) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	if b.p.phase != phaseStep {
		b.p.net.DeliverFlit(to, port, vc, f, cycle)
		return
	}
	b.emit(cycle, event{kind: evFlit, to: to, port: port, vc: vc, flit: f})
}

// DeliverCredit implements router.EventSink.
func (b *block) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	if b.p.phase != phaseStep {
		b.p.net.DeliverCredit(to, port, vc, delta, free, cycle)
		return
	}
	b.emit(cycle, event{kind: evCredit, to: to, port: port, vc: vc, delta: int8(delta), free: free})
}

// emit appends e, due at cycle at, to the owner's outbox for the worker
// that owns the receiver.
func (b *block) emit(at sim.Cycle, e event) {
	s, par := b.shard, at&1
	s.emitted[par]++
	l := &s.out[par][b.p.owner[e.to>>blockShift]].events
	*l = append(*l, e)
}

// outbox is one list of shard.out. Every append writes the list's length,
// so each list's header has a 64-byte stride of its own: two workers'
// appends never write one cache line.
type outbox struct {
	events []event
	_      [40]byte
}

// shard is one worker's state in the concurrent phases.
type shard struct {
	// out[at&1][w] holds the flits and credits the worker's routers
	// emitted, due at cycle at, for routers and NIs of worker w; worker w
	// empties its lists in the deliver phase. A flit emitted at cycle T
	// is due at T+2 and a credit at T+1, so a list holds the events of
	// one slot: one step phase's flits and the next one's credits, and,
	// in the coordinator's lists, the wheel slot's own events, which
	// deliver adds.
	out [2][]outbox
	// emitted[at&1] counts the current step phase's additions to out,
	// which the commit puts on the wheel's books.
	emitted [2]int
	// The worker's change to the awake sets' population counts, folded in
	// by the coordinator after the join.
	routers, nis int
	// blocks lists the blocks the worker owns, ascending: the ones its
	// shares of the step phase and of ForEachBlock walk.
	blocks []int32
	// Keeps two workers' hot fields off one cache line.
	_ [64]byte
}

// parallel is the kernel's per-network state.
type parallel struct {
	net     *Network
	workers int
	blocks  []block
	shards  []shard
	owner   []int32 // block -> worker (dealBlocks), asked once per event
	// awakeAt[b] is where block b's part of AwakeRouterIDs begins, and
	// awakeAt[len(blocks)] where the list ends: the walk and the commit
	// set them, ForEachBlock hands out the parts.
	awakeAt []int32
	// helpers are the pool goroutines behind workers 1..workers-1; nil
	// when the network was built with one worker or on one P, where every
	// share runs on the coordinator.
	helpers []*poolWorker
	offered []bool // per worker: its share of this phase went to the helper

	// queued counts the outbox events due at the cycles of each parity.
	// The outboxes are part of the wheel: a reader of a whole slot merges
	// first (mergeSlot).
	queued [2]int

	// The current phase's inputs, written before the hand-off publishes
	// them: what the shares do and the ForEachBlock function.
	phase int
	fn    func(b int, awake []int32)
	// pending counts the shares on offer to or running on helpers; the
	// coordinator waits for zero, blocked on wake past spinBound.
	pending atomic.Int32
	wake    chan struct{} // capacity 1

	// Telemetry for tests, benchmarks and profiles; not part of Stats,
	// which is compared bit for bit across kernels.
	stepPhases, inlinePhases uint64
	localEvents, crossEvents uint64
	workerPhases             []uint64
	clock                    *PhaseClock
}

// initParallel resolves the worker count (0 = GOMAXPROCS, clamped to the
// block count), deals the blocks and, at two or more workers, installs the
// blocks as sinks and takes the pool workers.
func (n *Network) initParallel(workers int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := (n.Topo.NumNodes() + 1<<blockShift - 1) >> blockShift
	workers = min(workers, nb)
	p := &n.par
	p.net, p.workers = n, workers
	p.blocks = make([]block, nb)
	p.awakeAt = make([]int32, nb+1)
	p.shards = make([]shard, workers)
	p.offered = make([]bool, workers)
	p.workerPhases = make([]uint64, workers)
	p.wake = make(chan struct{}, 1)
	for w := range p.shards {
		for par := range p.shards[w].out {
			p.shards[w].out[par] = make([]outbox, workers)
		}
	}
	var mine [][]int32
	p.owner, mine = dealBlocks(n.Topo, workers)
	for w := range p.shards {
		p.shards[w].blocks = mine[w]
	}
	for b := range p.blocks {
		p.blocks[b].p = p
		p.blocks[b].shard = &p.shards[p.owner[b]]
	}
	if workers == 1 {
		return
	}
	for id, r := range n.Routers {
		r.SetSink(&p.blocks[id>>blockShift])
	}
	if runtime.GOMAXPROCS(0) > 1 {
		p.helpers = poolWorkers(workers - 1)
	}
}

// concurrent reports whether a phase with work items to do runs across the
// workers: only at two or more of them, and only with at least min items.
func (p *parallel) concurrent(work, min int) bool {
	return p.workers > 1 && work >= min
}

// dealBlocks maps each block to one of workers workers by its place in
// the system. A block's key is the mean interposer row of its routers: an
// interposer router's own Y, a chiplet router's the Y of the interposer
// router under the Down link of its bound boundary router. The blocks,
// sorted by key and then by index, are cut into workers contiguous runs
// whose sizes differ by at most one, so each worker gets a band of
// interposer rows with the chiplets above them: a link joins two workers'
// routers, and its flits and credits cross cores, only at a band's edge
// (DESIGN.md §9). The map depends only on the topology and the count. It
// returns each block's owner and each worker's blocks in ascending order.
func dealBlocks(t *topology.Topology, workers int) (owner []int32, mine [][]int32) {
	nb := (t.NumNodes() + 1<<blockShift - 1) >> blockShift
	sum, count := make([]int, nb), make([]int, nb)
	for id := range t.Nodes {
		nd := &t.Nodes[id]
		y := nd.Y
		if nd.Chiplet != topology.InterposerChiplet {
			y = t.Nodes[t.InterposerUnder(nd.BoundBoundary)].Y
		}
		sum[id>>blockShift] += y
		count[id>>blockShift]++
	}
	order := make([]int, nb)
	for b := range order {
		order[b] = b
	}
	// Means compare exactly as cross products. The sort is stable: ties
	// stay in index order.
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(sum[a]*count[b], sum[b]*count[a])
	})
	owner = make([]int32, nb)
	for k, b := range order {
		owner[b] = int32(k * workers / nb)
	}
	mine = make([][]int32, workers)
	for b, w := range owner {
		mine[w] = append(mine[w], int32(b))
	}
	return owner, mine
}

// Shards returns the resolved worker count: 1 under KernelActive and
// KernelNaive.
func (n *Network) Shards() int { return n.par.workers }

// ParallelPhases counts the cycles that engaged the concurrent step phase
// and the ones that walked their awake routers inline (all of them at one
// worker).
func (n *Network) ParallelPhases() (compute, inline uint64) {
	return n.par.stepPhases, n.par.inlinePhases
}

// ParallelEvents counts the flits and credits the step phases' outboxes
// delivered, split by whether the receiver's worker is the one that
// emitted them (local) or another (cross). The deliver phase reads the
// counts off the outbox lists' lengths before it drains them, so they
// cost no per-event work; events a snapshot or state check merged into
// the wheel first are not counted.
func (n *Network) ParallelEvents() (local, cross uint64) {
	return n.par.localEvents, n.par.crossEvents
}

// WorkerPhases counts the phase shares each worker executed: [0] is the
// coordinator (its own plus any it kept or took back), [w] pool worker w.
func (n *Network) WorkerPhases() []uint64 { return n.par.workerPhases }

// NumBlocks is the number of 64-router blocks ForEachBlock visits.
func (n *Network) NumBlocks() int { return len(n.par.blocks) }

// ForEachBlock calls f(b, awake) for every 64-router block b of the node
// space, with awake the block's part of AwakeRouterIDs; it is for
// EndOfCycle, where that list is valid. At two or more workers each call
// runs on the worker that owns the block, concurrently with the others;
// at one worker, or when fewer than parallelMinAwake routers are awake,
// the calls run inline in ascending block order. f may therefore read
// only the routers in awake and state nothing writes during the call, and
// write only state indexed by their NodeIDs or by b (UPP's detection
// scan).
func (n *Network) ForEachBlock(f func(b int, awake []int32)) {
	p := &n.par
	if !p.concurrent(len(n.awakeIDs), parallelMinAwake) {
		for b := range p.blocks {
			f(b, p.blockAwake(b))
		}
		return
	}
	p.fn = f
	p.run(phaseBlocks)
	p.fn = nil
}

// blockAwake is block b's part of AwakeRouterIDs.
func (p *parallel) blockAwake(b int) []int32 {
	lo, hi := p.awakeAt[b], p.awakeAt[b+1]
	return p.net.awakeIDs[lo:hi:hi]
}

// deliver drains the current wheel slot — Step's one delivery call — and
// then runs the slot's calls on the coordinator. At one worker the
// coordinator applies the slot. At more, the slot's own flits and credits
// (the NIs' injections and credits, scheme sends, restored events) join
// the coordinator's outboxes for their receivers' workers, and every worker
// applies the outboxes addressed to it, concurrently or, below the
// engagement threshold, inline.
func (p *parallel) deliver(cycle sim.Cycle) {
	n, par := p.net, cycle&1
	events := n.takeSlot(cycle)
	if q := p.queued[par]; q > 0 {
		var local int
		for w := range p.shards {
			local += len(p.shards[w].out[par][w].events)
		}
		p.localEvents += uint64(local)
		p.crossEvents += uint64(q - local)
	}
	if p.workers == 1 {
		n.applyEvents(events, cycle, &p.shards[0])
	} else {
		out := p.shards[0].out[par]
		for i := range events {
			o := &out[p.owner[events[i].to>>blockShift]]
			o.events = append(o.events, events[i])
			events[i].flit.Pkt = nil
		}
		if p.concurrent(len(events)+p.queued[par], parallelMinEvents) {
			p.run(phaseDeliver)
		} else {
			for w := range p.shards {
				p.deliverShare(w, cycle)
			}
		}
	}
	p.queued[par] = 0
	p.fold()
	n.recycleSlot(events)
	n.runCalls(cycle)
}

// deliverShare applies the outboxes addressed to worker w. Within a slot
// the order of delivery is not observable — a VC receives at most one flit
// a cycle, credits add and wakes set bits — so the share needs no merge;
// DESIGN.md §9 has the argument.
func (p *parallel) deliverShare(w int, cycle sim.Cycle) {
	par := cycle & 1
	for from := range p.shards {
		o := &p.shards[from].out[par][w]
		p.net.applyEvents(o.events, cycle, &p.shards[w])
		o.events = o.events[:0]
	}
}

// applyEvents delivers the flits and credits of l, all of them for routers
// and NIs of the worker whose shard s is. A flit wakes the router it lands
// on and a local-port credit the NI, each in its own bitmap word, the wake
// counted in s. A credit to a router wakes nothing: one with buffered
// flits is already awake (only ReceiveFlit adds flits, and delivery wakes
// first), and an empty one would step to an immediate return and retire
// before the scheme's EndOfCycle could read it (DESIGN.md §7). A delivered
// flit's packet pointer is dropped: the list is reused at its grown
// capacity, and a retained entry would pin a released packet.
func (n *Network) applyEvents(l []event, cycle sim.Cycle, s *shard) {
	for i := range l {
		e := &l[i]
		switch {
		case e.kind == evFlit:
			if n.routers.mark(e.to) {
				s.routers++
			}
			n.Routers[e.to].ReceiveFlit(e.port, e.vc, e.flit, cycle+n.arrivalDelay(e.to, e.flit.Pkt))
			e.flit.Pkt = nil
		case e.port == topology.LocalPort:
			if n.nis.mark(e.to) {
				s.nis++
			}
			n.NIs[e.to].receiveCredit(e.vc, int(e.delta), e.free)
		default:
			n.Routers[e.to].ReceiveCredit(e.port, e.vc, int(e.delta), e.free)
		}
	}
}

// mergeSlot appends the outboxes due at cycle to its wheel slot.
func (p *parallel) mergeSlot(cycle sim.Cycle) {
	par := cycle & 1
	if p.queued[par] == 0 {
		return
	}
	n := p.net
	for w := range p.shards {
		for to := range p.shards[w].out[par] {
			o := &p.shards[w].out[par][to]
			for i := range o.events {
				n.schedule(cycle, o.events[i])
			}
			clear(o.events) // no packet pointer kept
			o.events = o.events[:0]
		}
	}
	p.queued[par] = 0
}

// flush merges every outbox into the wheel: between cycles they hold the
// events due at the current cycle and the next.
func (n *Network) flush() {
	n.par.mergeSlot(n.cycle)
	n.par.mergeSlot(n.cycle + 1)
}

// commit replays the step phase's ejections in ascending block order —
// the order the sequential walk ejects in — counts the phase's outbox
// events by the parity of their delivery cycle, folds in its retirements
// and lists its survivors.
func (p *parallel) commit() {
	n := p.net
	kept := n.awakeIDs[:0]
	for b := range p.blocks {
		blk := &p.blocks[b]
		for i := range blk.ejects {
			e := &blk.ejects[i]
			n.NIs[e.ni].AcceptFlit(e.flit, e.at)
			e.flit.Pkt = nil
		}
		blk.ejects = blk.ejects[:0]
		p.awakeAt[b] = int32(len(kept))
		kept = append(kept, blk.awake...)
	}
	p.awakeAt[len(p.blocks)] = int32(len(kept))
	n.awakeIDs = kept
	for w := range p.shards {
		s := &p.shards[w]
		for par, k := range s.emitted {
			p.queued[par] += k
		}
		s.emitted = [2]int{}
	}
	p.fold()
}

// fold adds the workers' wakes and router retirements to the awake sets'
// counts.
func (p *parallel) fold() {
	for w := range p.shards {
		s := &p.shards[w]
		p.net.routers.count += s.routers
		p.net.nis.count += s.nis
		s.routers, s.nis = 0, 0
	}
}

// run executes a phase. Every share whose helper is free is offered to
// it; the coordinator runs share 0, the shares it could not offer
// (another network of an oversubscribed sweep holds the helper) and the
// offered ones no helper has begun by then (parked, or no P to run on),
// so it only ever waits for work in progress. The atomic hand-off and
// join publish the phase inputs to the helpers and their writes back.
func (p *parallel) run(phase int) {
	p.phase = phase
	for w := 1; w < p.workers; w++ {
		p.offered[w] = p.helpers != nil && p.helpers[w-1].offer(p)
	}
	for w := 0; w < p.workers; w++ {
		if !p.offered[w] || p.helpers[w-1].reclaim(p) {
			p.runShare(w)
			p.workerPhases[0]++
		}
	}
	spinWait(p.wake, func() bool { return p.pending.Load() == 0 })
	p.phase = phaseNone
}

// runShare does worker w's part of the current phase. Its step and
// ForEachBlock shares walk only the blocks it owns: a block's emissions go
// to its owner's outboxes, which no other worker may write.
func (p *parallel) runShare(w int) {
	n, s := p.net, &p.shards[w]
	cycle := n.cycle
	if c := p.clock; c != nil {
		defer func(busy []time.Duration, t0 time.Time) { busy[w] += time.Since(t0) }(c.Busy[clockPhase[p.phase]], time.Now())
	}
	switch p.phase {
	case phaseDeliver:
		p.deliverShare(w, cycle)
	case phaseStep:
		for _, b := range s.blocks {
			blk := &p.blocks[b]
			var gone int
			blk.awake, gone = n.stepBlock(int(b), cycle, blk.awake[:0])
			s.routers -= gone
		}
	case phaseBlocks:
		for _, b := range s.blocks {
			p.fn(int(b), p.blockAwake(int(b)))
		}
	}
}

// --- Hand-off ---------------------------------------------------------------

// spinWait returns once ready() holds. It polls for spinBound — a hand-off
// then costs a cache-line transfer, not a futex round trip — and after
// that blocks on wake between looks. Whoever makes ready() true calls
// signal afterwards; a token nobody was blocked on stays in the channel
// and costs a later waiter one more look.
func spinWait(wake chan struct{}, ready func() bool) {
	var start time.Time
	for i := 1; !ready(); i++ {
		if i%1024 != 0 {
			continue
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) > spinBound {
			<-wake
		}
	}
}

func signal(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// poolWorker is one persistent goroutine of the pool all parallel-kernel
// networks share; pool worker i runs share i+1 of whoever gets it. job is
// nil while it is free, the network whose share is on offer, or &running
// while it works: between jobs it keeps no network from being collected.
type poolWorker struct {
	job   atomic.Pointer[parallel]
	wake  chan struct{} // capacity 1
	share int
}

var (
	running parallel // the poolWorker.job sentinel
	poolMu  sync.Mutex
	pool    []*poolWorker
)

// poolWorkers returns the first k pool workers, starting the ones that do
// not exist yet: the pool grows to the largest helper count any network
// has asked for and is never sized by who came first.
func poolWorkers(k int) []*poolWorker {
	poolMu.Lock()
	defer poolMu.Unlock()
	for len(pool) < k {
		w := &poolWorker{wake: make(chan struct{}, 1), share: len(pool) + 1}
		pool = append(pool, w)
		go func() {
			for {
				spinWait(w.wake, func() bool { return w.job.Load() != nil })
				w.work()
			}
		}()
	}
	return pool[:k:k]
}

// offer puts w's share of p's current phase on offer if w is free.
func (w *poolWorker) offer(p *parallel) bool {
	p.pending.Add(1)
	if !w.job.CompareAndSwap(nil, p) {
		p.pending.Add(-1)
		return false
	}
	signal(w.wake)
	return true
}

// reclaim takes p's offer back unless w has begun it (or finished it and
// moved on to another network's).
func (w *poolWorker) reclaim(p *parallel) bool {
	if !w.job.CompareAndSwap(p, nil) {
		return false
	}
	p.pending.Add(-1)
	return true
}

// work takes the share on offer, unless its owner just took it back, runs
// it and frees the worker before it reports to the coordinator, whose next
// phase would otherwise find the worker busy.
func (w *poolWorker) work() {
	p := w.job.Load()
	if p == nil || !w.job.CompareAndSwap(p, &running) {
		return
	}
	p.runShare(w.share)
	p.workerPhases[w.share]++
	w.job.Store(nil)
	if p.pending.Add(-1) == 0 {
		signal(p.wake)
	}
}

// --- Phase clock ------------------------------------------------------------

// Phases of one step cycle, as PhaseClock splits it.
const (
	PhaseDeliver = iota
	PhaseStartOfCycle
	PhaseCompute  // the step phase (or the inline walk)
	PhaseCommit   // the ejection replay
	PhaseNIRetire // NI walk and retirement
	PhaseEndOfCycle
	NumPhases
)

// clockPhase is the PhaseClock phase a concurrent phase's busy time goes
// to (ForEachBlock runs in EndOfCycle).
var clockPhase = [...]int{phaseDeliver: PhaseDeliver, phaseStep: PhaseCompute, phaseBlocks: PhaseEndOfCycle}

// PhaseClock accumulates where the host time of Step's cycles goes, under
// every kernel. A network has none unless a profiler installs one: Step
// otherwise pays one nil check per phase boundary.
type PhaseClock struct {
	// Wall is the coordinator's time per phase, hand-off and join included.
	Wall [NumPhases]time.Duration
	// Busy[phase][w] is worker w's time inside its share of the phase's
	// concurrent part (deliver, compute, UPP's detection scan in
	// EndOfCycle); the rest of the phase's Wall is the worker waiting
	// for the hand-off or at the barrier, or the phase's serial part.
	// Empty at one worker, which runs every phase inline.
	Busy [NumPhases][]time.Duration
	last time.Time
}

// SetPhaseClock installs c (nil removes it).
func (n *Network) SetPhaseClock(c *PhaseClock) {
	if c != nil && n.par.workers > 1 {
		for _, ph := range clockPhase[phaseDeliver:] {
			c.Busy[ph] = make([]time.Duration, n.par.workers)
		}
	}
	n.par.clock = c
}

// lap charges the time since the last lap to phase; a negative phase
// only opens a cycle.
func (c *PhaseClock) lap(phase int) {
	if c == nil {
		return
	}
	now := time.Now()
	if phase >= 0 {
		c.Wall[phase] += now.Sub(c.last)
	}
	c.last = now
}
