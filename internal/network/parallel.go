// The two concurrent phases of Network.step, engaged on a network built
// with blocks (KernelParallel); DESIGN.md §9 has the argument.
//
// The node space is cut into fixed 64-router blocks — block b is word b of
// the awake bitmap — owned by worker b mod Config.Shards for the life of
// the network; worker 0 is the coordinating goroutine, the others come
// from a package-level pool. Deliver: after a serial pre-pass over the
// wheel slot (wakes, OnFlitArrived, NI credits) every worker applies the
// slot's ReceiveFlit/ReceiveCredit calls to its own routers, in slot
// order. Step: after the scheme's StartOfCycle every worker steps the
// awake routers of its blocks in ascending NodeID order; Router.Step's
// concurrency contract keeps a step to the router's own state, and what
// else it causes goes to the block's commit log. The commit replays the
// logs in ascending block order — ascending NodeID order, the order the
// sequential walk produces the same effects in, whatever the worker count.
package network

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

const (
	// Engagement thresholds: fewer awake routers (slot events) are
	// stepped (delivered) inline — a hand-off would cost more.
	parallelMinAwake  = 16
	parallelMinEvents = 64
	// blockShift sizes the blocks: 64 NodeIDs, one awakeSet word, small
	// enough that dealing them round-robin balances the workers whatever
	// region is busy.
	blockShift = 6
	// spinBound is how long a waiter polls before it parks: longer than
	// the serial stretch between two phases of a large system's cycle
	// (~200 us on 8192 routers), so a dedicated run never parks mid-cycle.
	spinBound = time.Millisecond
)

// commitOp is one deferred cross-component effect of a router step: an
// evFlit or evCredit bound for the wheel, or an opEject (NI.AcceptFlit at
// the emitting router).
type commitOp struct {
	kind  uint8
	vc    int8
	delta int8
	free  bool
	to    topology.NodeID
	port  topology.PortID
	at    sim.Cycle
	flit  message.Flit
}

const opEject = evSchemeCall + 1

// block is the reusable commit log of 64 consecutive NodeIDs. It is its
// routers' EventSink: emissions are logged during the step phase and go
// straight to the network outside it (scheme plugin API, inline
// fallback). NI.AcceptFlit logs ejections the same way.
type block struct {
	p   *parallel
	log []commitOp
}

// DeliverFlit implements router.EventSink.
func (b *block) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	if !b.p.inStep {
		b.p.net.DeliverFlit(to, port, vc, f, cycle)
		return
	}
	b.log = append(b.log, commitOp{kind: evFlit, to: to, port: port, vc: vc, flit: f, at: cycle})
}

// DeliverCredit implements router.EventSink.
func (b *block) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	if !b.p.inStep {
		b.p.net.DeliverCredit(to, port, vc, delta, free, cycle)
		return
	}
	b.log = append(b.log, commitOp{kind: evCredit, to: to, port: port, vc: vc, delta: int8(delta), free: free, at: cycle})
}

// parallel is the kernel's per-network state.
type parallel struct {
	net     *Network
	workers int
	blocks  []block
	owner   []int32 // block -> worker: b mod workers, asked once per event
	// helpers are the pool goroutines behind workers 1..workers-1; nil
	// when the network was built with one worker or on one P, where every
	// share runs on the coordinator.
	helpers []*poolWorker
	offered []bool // per worker: its share of this phase went to the helper

	// The current phase's inputs, written before the hand-off publishes
	// them: the phase (step, where the sinks record, or deliver) and the
	// wheel slot being delivered. The step phase reads the awake bitmap.
	inStep bool
	events []event
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
// block count), deals the blocks and installs the recording sinks.
func (n *Network) initParallel(workers int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := (n.Topo.NumNodes() + 1<<blockShift - 1) >> blockShift
	workers = min(workers, nb)
	p := &n.par
	p.net, p.workers = n, workers
	p.blocks = make([]block, nb)
	p.owner = make([]int32, nb)
	p.offered = make([]bool, workers)
	p.workerPhases = make([]uint64, workers)
	p.wake = make(chan struct{}, 1)
	for b := range p.blocks {
		p.blocks[b].p = p
		p.owner[b] = int32(b % workers)
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

// deliver drains a wheel slot that holds no SchemeCall (those may touch
// anything: deliverEvents takes the slot). The serial pre-pass does what
// touches shared state, the deliver phase the buffer writes.
func (p *parallel) deliver(cycle sim.Cycle) {
	n := p.net
	events := n.takeSlot(cycle)
	for i := range events {
		e := &events[i]
		if e.kind == evFlit {
			e.aux = int32(n.scheme.OnFlitArrived(e.to, e.port, e.flit, cycle))
			n.routers.add(e.to)
		} else if e.port == topology.LocalPort {
			n.wakeNI(e.to)
			n.NIs[e.to].receiveCredit(e.vc, int(e.delta), e.free)
		}
	}
	p.clock.lap(PhasePrePass)
	p.events = events
	p.run()
	p.events = nil
	// The coordinator drops the packet pointers (see deliverEvents): a
	// worker writing into the slot would bounce the lines the others read.
	for i := range events {
		events[i].flit.Pkt = nil
	}
	n.recycleSlot(events)
}

// run executes the current phase. Every share whose helper is free is
// offered to it; the coordinator runs share 0, the shares it could not
// offer (another network of an oversubscribed sweep holds the helper) and
// the offered ones no helper has begun by then (parked, or no P to run
// on), so it only ever waits for work in progress. The atomic hand-off
// and join publish the phase inputs to the helpers and their writes back.
func (p *parallel) run() {
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
}

// runShare does worker w's part of the current phase.
func (p *parallel) runShare(w int) {
	n := p.net
	cycle := n.cycle
	if c := p.clock; c != nil {
		busy := c.DeliverBusy
		if p.inStep {
			busy = c.StepBusy
		}
		defer func(t0 time.Time) { busy[w] += time.Since(t0) }(time.Now())
	}
	if p.inStep {
		n.walkRouters(w, p.workers, cycle)
		return
	}
	for i := range p.events {
		e := &p.events[i]
		if int(p.owner[e.to>>blockShift]) != w {
			continue
		}
		if e.kind == evFlit {
			n.Routers[e.to].ReceiveFlit(e.port, e.vc, e.flit, cycle+sim.Cycle(e.aux))
		} else if e.port != topology.LocalPort {
			n.Routers[e.to].ReceiveCredit(e.port, e.vc, int(e.delta), e.free)
		}
	}
}

// commit replays the blocks' logs in ascending block order: the sequential
// walk's exact interleaving of wheel appends, ejections, scheme callbacks
// and wakes. Packet pointers are dropped so the reused log does not pin
// packets past release.
func (p *parallel) commit() {
	n := p.net
	for b := range p.blocks {
		blk := &p.blocks[b]
		for j := range blk.log {
			op := &blk.log[j]
			switch op.kind {
			case evFlit:
				n.DeliverFlit(op.to, op.port, op.vc, op.flit, op.at)
			case evCredit:
				n.DeliverCredit(op.to, op.port, op.vc, int(op.delta), op.free, op.at)
			case opEject:
				n.NIs[op.to].AcceptFlit(op.flit, op.at)
			}
			op.flit.Pkt = nil
		}
		blk.log = blk.log[:0]
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
	PhasePrePass = iota
	PhaseDeliver
	PhaseStartOfCycle
	PhaseCompute // the step phase (or the inline walk)
	PhaseCommit
	PhaseNIRetire // NI walk and both retirement passes
	PhaseEndOfCycle
	NumPhases
)

// PhaseClock accumulates where the host time of step's cycles goes. A
// network has none unless a profiler installs one: step otherwise pays
// one nil check per phase boundary.
type PhaseClock struct {
	// Wall is the coordinator's time per phase, hand-off and join included.
	Wall [NumPhases]time.Duration
	// DeliverBusy and StepBusy are each worker's time inside its share of
	// the two concurrent phases; the rest of the phase's Wall is the
	// worker waiting for the hand-off or at the barrier.
	DeliverBusy, StepBusy []time.Duration
	last                  time.Time
}

// SetPhaseClock installs c (nil removes it); the naive kernel does not
// fill it, and the busy times stay empty without workers.
func (n *Network) SetPhaseClock(c *PhaseClock) {
	if c != nil {
		c.DeliverBusy = make([]time.Duration, n.par.workers)
		c.StepBusy = make([]time.Duration, n.par.workers)
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
