// The concurrent phases of Network.Step, engaged on a network built with
// blocks (KernelParallel); DESIGN.md §9 has the argument.
//
// The node space is cut into fixed 64-router blocks — block b is word b of
// the awake bitmaps — owned by worker b mod Config.Shards for the life of
// the network; worker 0 is the coordinating goroutine, the others come
// from a package-level pool. Every pass over routers and NIs that can
// run per block runs on the worker that owns the block, which keeps a
// router's state in one core's cache; the coordinator keeps the work
// whose order matters. Step: after the scheme's StartOfCycle every worker
// steps the awake routers of its blocks in ascending NodeID order;
// Router.Step's concurrency contract keeps a step to the router's own
// state, its flits and credits go to the stepping worker's outboxes, split
// by the worker that owns the receiver, and its ejections to the block's
// log, which the commit replays in ascending block order. Deliver: every
// worker applies the outboxes addressed to it and its routers' and NIs'
// events of the central wheel slot, waking its own routers and NIs. Retire: every worker
// removes the idle routers and NIs of its blocks from the awake sets and
// lists each block's survivors (Network.retireBlock); the coordinator then
// concatenates the lists and notifies the scheme. ForEachBlock runs a
// scheme's per-block pass (UPP's detection scan) the same way. The NI walk
// stays on the coordinator.
//
// Whatever reads a wheel slot in order — serial delivery of a slot with a
// SchemeCall, delivery below the engagement threshold, a snapshot, the idle
// skip, the state checks — first merges the slot's outboxes into it at the
// merge points the commit recorded, which rebuilds the order the sequential
// walk appends in, whatever the worker count.
package network

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

const (
	// Engagement thresholds: a cycle with fewer awake routers steps them
	// and runs ForEachBlock's blocks inline, with fewer awake routers and
	// NIs it retires inline, and a slot with fewer events is delivered
	// inline — a hand-off would cost more.
	parallelMinAwake  = 16
	parallelMinEvents = 64
	// blockShift sizes the blocks: 64 NodeIDs, one awakeSet word, small
	// enough that dealing them round-robin balances the workers whatever
	// region is busy.
	blockShift = 6
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
	phaseRetire
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
	// seqEnd[at&1][kind] is the owner's sequence number after this
	// block's routers stepped: the block's events of an outbox list set
	// are the ones numbered below it and at or above the previous block's.
	// mergeAt[at&1][kind] is where they join the slot: the slot's length
	// when the commit reached this block.
	seqEnd, mergeAt [2][2]int32
	// ejects is the step phase's ejections in emission order.
	ejects []ejection
	// awake is the retirement phase's survivors, this block's part of
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
// that owns the receiver, numbering it in the owner's emission order.
func (b *block) emit(at sim.Cycle, e event) {
	s, par := b.shard, at&1
	e.aux = s.seq[par][e.kind]
	s.seq[par][e.kind]++
	l := &s.out[par][e.kind][b.p.owner[e.to>>blockShift]]
	*l = append(*l, e)
}

// shard is one worker's state in the concurrent phases.
type shard struct {
	// out[at&1][kind][w] holds the flits (kind evFlit) and credits
	// (evCredit) the worker's routers emitted in a step phase, due at
	// cycle at, for routers and NIs of worker w; worker w empties its
	// lists in the deliver phase. A flit emitted at cycle T is due at T+2
	// and a credit at T+1, so each list holds one step phase's emissions
	// for one slot. aux numbers the events of a list set in emission
	// order (seq), which a merge restores.
	out [2][2][][]event
	seq [2][2]int32
	// The worker's change to the awake sets' population counts, folded in
	// by the coordinator after the join.
	routers, nis int
	// Keeps two workers' hot fields off one cache line.
	_ [64]byte
}

// parallel is the kernel's per-network state.
type parallel struct {
	net     *Network
	workers int
	blocks  []block
	shards  []shard
	owner   []int32 // block -> worker: b mod workers, asked once per event
	// helpers are the pool goroutines behind workers 1..workers-1; nil
	// when the network was built with one worker or on one P, where every
	// share runs on the coordinator.
	helpers []*poolWorker
	offered []bool // per worker: its share of this phase went to the helper
	cursor  []int  // mergeSlot's read positions, per (emitter, receiver)

	// queued counts the outbox events due at the cycles of each parity.
	// The outboxes are part of the wheel: wheelPending counts queued, and
	// a slot's reader merges first (mergeSlot).
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
	p.owner = make([]int32, nb)
	p.offered = make([]bool, workers)
	p.cursor = make([]int, workers*workers)
	p.workerPhases = make([]uint64, workers)
	p.wake = make(chan struct{}, 1)
	for w := range p.shards {
		for par := range p.shards[w].out {
			for kind := range p.shards[w].out[par] {
				p.shards[w].out[par][kind] = make([][]event, workers)
			}
		}
	}
	for b := range p.blocks {
		p.owner[b] = int32(b % workers)
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

// Shards returns the parallel kernel's resolved worker count (else 0).
func (n *Network) Shards() int { return n.par.workers }

// ParallelPhases counts the cycles that engaged the concurrent step phase
// and the ones that walked their awake routers inline (all of them on a
// network without blocks).
func (n *Network) ParallelPhases() (compute, inline uint64) {
	return n.par.stepPhases, n.par.inlinePhases
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
	p.fn = f
	if len(n.awakeIDs) >= parallelMinAwake {
		p.run(phaseBlocks)
	} else {
		p.eachBlock(0, 1)
	}
	p.fn = nil
}

// eachBlock calls p.fn for blocks first, first+stride, … with each
// block's run of the ascending AwakeRouterIDs.
func (p *parallel) eachBlock(first, stride int) {
	ids := p.net.awakeIDs
	for b := first; b < len(p.blocks); b += stride {
		lo, _ := slices.BinarySearch(ids, int32(b<<blockShift))
		k, _ := slices.BinarySearch(ids[lo:], int32((b+1)<<blockShift))
		p.fn(b, ids[lo:lo+k])
	}
}

// deliver drains the current wheel slot. A slot holding a SchemeCall (those
// may touch anything) or too few events for a hand-off is merged and
// delivered serially by deliverEvents; otherwise every worker applies its
// own events.
func (p *parallel) deliver(cycle sim.Cycle) {
	n := p.net
	slot, par := cycle%wheelSize, cycle&1
	if len(n.callWheel[slot]) > 0 || len(n.wheel[slot])+p.queued[par] < parallelMinEvents {
		p.mergeSlot(cycle)
		n.deliverEvents(cycle)
		return
	}
	events := n.takeSlot(cycle)
	n.wheelPending -= p.queued[par]
	p.events = events
	p.run(phaseDeliver)
	p.events = nil
	p.fold()
	p.drained(par)
	// The coordinator drops the slot's packet pointers (see deliverEvents):
	// a worker writing into the slot would bounce the lines the others read.
	for i := range events {
		events[i].flit.Pkt = nil
	}
	n.recycleSlot(events)
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
	for kind := range 2 {
		for from := range p.shards {
			l := p.shards[from].out[par][kind][w]
			for i := range l {
				n.apply(&l[i], cycle, s)
				l[i].flit.Pkt = nil
			}
			p.shards[from].out[par][kind][w] = l[:0]
		}
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

// drained forgets the outboxes of the parity just delivered or merged.
func (p *parallel) drained(par sim.Cycle) {
	p.queued[par] = 0
	for w := range p.shards {
		p.shards[w].seq[par] = [2]int32{}
	}
	for b := range p.blocks {
		p.blocks[b].mergeAt[par] = [2]int32{}
	}
}

// mergeSlot merges the outboxes due at cycle into its wheel slot: block b's
// part of each list set, in emission order, goes in at its merge point —
// the order in which the sequential walk appends.
func (p *parallel) mergeSlot(cycle sim.Cycle) {
	par := cycle & 1
	if p.queued[par] == 0 {
		p.drained(par)
		return
	}
	n := p.net
	slot := cycle % wheelSize
	events := n.wheel[slot]
	var merged []event
	if k := len(n.wheelFree); k > 0 {
		merged, n.wheelFree = n.wheelFree[k-1], n.wheelFree[:k-1]
	}
	k := 0
	for kind := range 2 {
		clear(p.cursor)
		for b := range p.blocks {
			if mp := int(p.blocks[b].mergeAt[par][kind]); mp > k {
				merged = append(merged, events[k:mp]...)
				k = mp
			}
			from := int(p.owner[b])
			merged = p.appendBlock(merged, p.shards[from].out[par][kind], p.cursor[from*p.workers:][:p.workers], p.blocks[b].seqEnd[par][kind])
		}
		for w := range p.shards {
			lists := p.shards[w].out[par][kind]
			for to, l := range lists {
				clear(l) // no packet pointer kept
				lists[to] = l[:0]
			}
		}
	}
	n.wheel[slot] = append(merged, events[k:]...)
	n.recycleSlot(events)
	p.drained(par)
}

// appendBlock appends one block's part of an emitter's list set to dst in
// emission order — a merge of the per-receiver lists by sequence number,
// up to end — advancing the read positions cur.
func (p *parallel) appendBlock(dst []event, lists [][]event, cur []int, end int32) []event {
	for {
		best := -1
		for w, l := range lists {
			if i := cur[w]; i < len(l) && l[i].aux < end && (best < 0 || l[i].aux < lists[best][cur[best]].aux) {
				best = w
			}
		}
		if best < 0 {
			return dst
		}
		e := lists[best][cur[best]]
		cur[best]++
		e.aux = 0
		dst = append(dst, e)
	}
}

// flush merges every outbox into the wheel: between cycles they hold the
// events due at the current cycle and the next.
func (n *Network) flush() {
	if n.par.blocks != nil {
		n.par.mergeSlot(n.cycle)
		n.par.mergeSlot(n.cycle + 1)
	}
}

// commit replays the step phase's ejections in ascending block order — the
// order the sequential walk ejects in — and records where each block's
// part of the new outbox lists joins its slot: before the block's own
// replay, so what the replay schedules lands after the block's events and
// before the next block's. That is the sequential order only while a
// replay schedules nothing into the outboxes' slots, where the walk would
// put it among the block's emissions; NI.AcceptFlit schedules nothing
// there, and Debug builds check it. commit also puts the new outbox events
// on the wheel's books.
func (p *parallel) commit(cycle sim.Cycle) {
	n := p.net
	// A flit emitted at cycle is due at cycle+2, a credit at cycle+1.
	fp, cp := (cycle+2)&1, (cycle+1)&1
	fs, cs := (cycle+2)%wheelSize, (cycle+1)%wheelSize
	for b := range p.blocks {
		blk := &p.blocks[b]
		blk.mergeAt[fp][evFlit] = int32(len(n.wheel[fs]))
		blk.mergeAt[cp][evCredit] = int32(len(n.wheel[cs]))
		for i := range blk.ejects {
			e := &blk.ejects[i]
			n.NIs[e.ni].AcceptFlit(e.flit, e.at)
			e.flit.Pkt = nil
		}
		if message.Debug && (len(n.wheel[fs]) != int(blk.mergeAt[fp][evFlit]) || len(n.wheel[cs]) != int(blk.mergeAt[cp][evCredit])) {
			panic(fmt.Sprintf("network: cycle %d: block %d's ejection replay scheduled into an outbox slot", cycle, b))
		}
		blk.ejects = blk.ejects[:0]
	}
	// The lists were empty when the phase began (drained), so the
	// sequence numbers count this phase's emissions.
	for w := range p.shards {
		s := &p.shards[w]
		flits, credits := int(s.seq[fp][evFlit]), int(s.seq[cp][evCredit])
		p.queued[fp] += flits
		p.queued[cp] += credits
		n.wheelPending += flits + credits
	}
}

// fold adds the workers' wakes and retirements to the awake sets' counts.
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

// runShare does worker w's part of the current phase: its blocks are
// w, w+workers, ….
func (p *parallel) runShare(w int) {
	n := p.net
	cycle := n.cycle
	if c := p.clock; c != nil {
		defer func(busy []time.Duration, t0 time.Time) { busy[w] += time.Since(t0) }(c.Busy[clockPhase[p.phase]], time.Now())
	}
	switch p.phase {
	case phaseDeliver:
		p.deliverShare(w, cycle)
	case phaseStep:
		s := &p.shards[w]
		fp, cp := (cycle+2)&1, (cycle+1)&1
		for b := w; b < len(p.blocks); b += p.workers {
			n.stepBlock(b, cycle)
			p.blocks[b].seqEnd[fp][evFlit] = s.seq[fp][evFlit]
			p.blocks[b].seqEnd[cp][evCredit] = s.seq[cp][evCredit]
		}
	case phaseRetire:
		s := &p.shards[w]
		for b := w; b < len(p.blocks); b += p.workers {
			blk := &p.blocks[b]
			var routers, nis int
			blk.awake, routers, nis = n.retireBlock(b, blk.awake[:0])
			s.routers -= routers
			s.nis -= nis
		}
	case phaseBlocks:
		p.eachBlock(w, p.workers)
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
var clockPhase = [...]int{phaseDeliver: PhaseDeliver, phaseStep: PhaseCompute, phaseRetire: PhaseNIRetire, phaseBlocks: PhaseEndOfCycle}

// PhaseClock accumulates where the host time of Step's cycles goes, under
// every kernel. A network has none unless a profiler installs one: Step
// otherwise pays one nil check per phase boundary.
type PhaseClock struct {
	// Wall is the coordinator's time per phase, hand-off and join included.
	Wall [NumPhases]time.Duration
	// Busy[phase][w] is worker w's time inside its share of the phase's
	// concurrent part (deliver, compute, retirement, UPP's detection scan
	// in EndOfCycle); the rest of the phase's Wall is the worker waiting
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
