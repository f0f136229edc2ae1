// The concurrent phases of Network.Step, engaged on a network built with
// blocks (KernelParallel); DESIGN.md §9 has the argument.
//
// The node space is cut into fixed 64-router blocks — block b is word b of
// the awake bitmaps — dealt for the life of the network to Config.Shards
// workers in bands of interposer rows, each band with the chiplets above
// it (dealBlocks), so most links join two routers of one worker; worker 0
// is the coordinating goroutine, the others come from a package-level
// pool. Every pass over routers and NIs that can run per block runs on
// the worker that owns the block, walking its ascending list of blocks,
// which keeps a router's state in one core's cache; the coordinator keeps
// the work whose order matters. Deliver: every worker applies the outboxes
// addressed to it and its routers' and NIs' events of the central wheel
// slot, waking its own routers and NIs; a slot's flits and credits
// commute, so no worker needs another's order, and the coordinator runs
// the slot's SchemeCalls after the join. Step: after the scheme's
// StartOfCycle every worker steps the awake routers of its blocks in
// ascending NodeID order; Router.Step's concurrency contract keeps a step
// to the router's own state, its flits and credits go to the stepping
// worker's outboxes, split by the worker that owns the receiver, and its
// ejections to the block's log, which the commit replays in ascending
// block order. The step retires each router it leaves idle and lists its
// block's survivors (Network.stepBlock); the commit concatenates the lists.
// ForEachBlock runs a scheme's per-block pass (UPP's detection scan) the
// same way, over those lists. The NI walk and NI retirement stay on the
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
	// Engagement thresholds: a cycle with fewer awake routers steps them
	// and runs ForEachBlock's blocks inline, and a slot with fewer flits
	// and credits runs every worker's delivery share inline — a hand-off
	// would cost more.
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
// coordinator after the join. It is its routers' EventSink: during the step
// phase emissions go to the owner's outboxes, outside it (scheme plugin
// API, inline walk) straight to the network. NI.AcceptFlit logs the step
// phase's ejections the same way.
type block struct {
	p     *parallel
	shard *shard // the owner's
	// ejects is the step phase's ejections in emission order.
	ejects []ejection
	// awake is the routers the walk left awake, this block's part of
	// AwakeRouterIDs.
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
	// one slot: one step phase's flits and the next one's credits.
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
	// them: what the shares do, the wheel slot being delivered, the
	// ForEachBlock function.
	phase  int
	events []event
	fn     func(b int, awake []int32)
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
// block count), deals the blocks and installs the blocks as sinks.
func (n *Network) initParallel(workers int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := (n.Topo.NumNodes() + 1<<blockShift - 1) >> blockShift
	workers = min(workers, nb)
	p := &n.par
	p.net, p.workers = n, workers
	p.blocks = make([]block, nb)
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
	for id, r := range n.Routers {
		r.SetSink(&p.blocks[id>>blockShift])
	}
	if workers > 1 && runtime.GOMAXPROCS(0) > 1 {
		p.helpers = poolWorkers(workers - 1)
	}
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

// Shards returns the parallel kernel's resolved worker count (else 0).
func (n *Network) Shards() int { return n.par.workers }

// ParallelPhases counts the cycles that engaged the concurrent step phase
// and the ones that walked their awake routers inline (all of them on a
// network without blocks).
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

// NumBlocks is the number of blocks ForEachBlock visits: the parallel
// kernel's 64-router blocks, or one under the other kernels.
func (n *Network) NumBlocks() int { return max(len(n.par.blocks), 1) }

// ForEachBlock calls f(b, awake) for every block b of the node space, with
// awake the block's part of AwakeRouterIDs; it is for EndOfCycle, where
// that list is valid. Under the parallel kernel the blocks are its
// 64-router blocks and each call runs on the worker that owns the block,
// concurrently with the others (inline, in ascending block order, when
// fewer than parallelMinAwake routers are awake); under the other kernels
// there is one block, 0, holding every router. f may therefore read only
// the routers in awake and state nothing writes during the call, and
// write only state indexed by their NodeIDs or by b (UPP's detection
// scan).
func (n *Network) ForEachBlock(f func(b int, awake []int32)) {
	p := &n.par
	if p.blocks == nil {
		f(0, n.awakeIDs)
		return
	}
	if len(n.awakeIDs) < parallelMinAwake {
		for b := range p.blocks {
			f(b, p.blocks[b].awake)
		}
		return
	}
	p.fn = f
	p.run(phaseBlocks)
	p.fn = nil
}

// listAwake makes AwakeRouterIDs the concatenation of the blocks' survivor
// lists, in ascending block order.
func (p *parallel) listAwake() {
	kept := p.net.awakeIDs[:0]
	for b := range p.blocks {
		kept = append(kept, p.blocks[b].awake...)
	}
	p.net.awakeIDs = kept
}

// deliver drains the current wheel slot: every worker applies its own
// flits and credits, concurrently or, below the engagement threshold,
// inline; then the coordinator runs the slot's calls.
func (p *parallel) deliver(cycle sim.Cycle) {
	n, par := p.net, cycle&1
	events := n.takeSlot(cycle)
	p.events = events
	if q := p.queued[par]; q > 0 {
		var local int
		for w := range p.shards {
			local += len(p.shards[w].out[par][w].events)
		}
		p.localEvents += uint64(local)
		p.crossEvents += uint64(q - local)
	}
	if len(events)+p.queued[par] < parallelMinEvents {
		for w := range p.shards {
			p.deliverShare(w, cycle)
		}
	} else {
		p.run(phaseDeliver)
	}
	p.events = nil
	p.queued[par] = 0
	p.fold()
	// The coordinator drops the slot's packet pointers (see deliverEvents):
	// a worker writing into the slot would bounce the lines the others read.
	for i := range events {
		events[i].flit.Pkt = nil
	}
	n.recycleSlot(events)
	n.runCalls(cycle)
}

// deliverShare applies worker w's part of the slot being delivered: its
// receivers' events of the central slot, then the outboxes addressed to
// it. Within a slot the order of delivery is not observable — a VC
// receives at most one flit a cycle, credits add and wakes set bits — so
// the share needs no merge; DESIGN.md §9 has the argument.
func (p *parallel) deliverShare(w int, cycle sim.Cycle) {
	n, par, s := p.net, cycle&1, &p.shards[w]
	for i := range p.events {
		if e := &p.events[i]; int(p.owner[e.to>>blockShift]) == w {
			n.apply(e, cycle, s)
		}
	}
	for from := range p.shards {
		o := &p.shards[from].out[par][w]
		for i := range o.events {
			n.apply(&o.events[i], cycle, s)
			o.events[i].flit.Pkt = nil
		}
		o.events = o.events[:0]
	}
}

// apply delivers one flit or credit on the worker that owns its receiver,
// waking the router or NI in its own bitmap word and counting the wake in
// the worker's shard: deliverEvents' rule.
func (n *Network) apply(e *event, cycle sim.Cycle, s *shard) {
	if e.kind == evFlit {
		if n.routers.mark(e.to) {
			s.routers++
		}
		n.Routers[e.to].ReceiveFlit(e.port, e.vc, e.flit, cycle+n.arrivalDelay(e.to, e.flit.Pkt))
	} else if e.port == topology.LocalPort {
		if n.nis.mark(e.to) {
			s.nis++
		}
		n.NIs[e.to].receiveCredit(e.vc, int(e.delta), e.free)
	} else {
		n.Routers[e.to].ReceiveCredit(e.port, e.vc, int(e.delta), e.free)
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
	if n.par.blocks != nil {
		n.par.mergeSlot(n.cycle)
		n.par.mergeSlot(n.cycle + 1)
	}
}

// commit replays the step phase's ejections in ascending block order —
// the order the sequential walk ejects in — counts the phase's outbox
// events by the parity of their delivery cycle, folds in its retirements
// and lists its survivors.
func (p *parallel) commit() {
	n := p.net
	for b := range p.blocks {
		blk := &p.blocks[b]
		for i := range blk.ejects {
			e := &blk.ejects[i]
			n.NIs[e.ni].AcceptFlit(e.flit, e.at)
			e.flit.Pkt = nil
		}
		blk.ejects = blk.ejects[:0]
	}
	for w := range p.shards {
		s := &p.shards[w]
		for par, k := range s.emitted {
			p.queued[par] += k
		}
		s.emitted = [2]int{}
	}
	p.fold()
	p.listAwake()
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
			p.fn(int(b), p.blocks[b].awake)
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
	// Empty without workers.
	Busy [NumPhases][]time.Duration
	last time.Time
}

// SetPhaseClock installs c (nil removes it).
func (n *Network) SetPhaseClock(c *PhaseClock) {
	if c != nil {
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
