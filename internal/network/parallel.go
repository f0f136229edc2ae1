// Parallel cycle kernel (KernelParallel): a two-phase compute/commit step
// that shards the active-set router walk across a bounded worker pool
// while staying bit-identical to the sequential kernels.
//
// Phase 1 (compute, concurrent): awake routers are partitioned into
// static NodeID-range shards; each shard steps its routers in ascending
// NodeID order. Router.Step's concurrency contract (see its doc comment)
// guarantees a step mutates only the router's own state; every
// cross-component effect — scheduled flit and credit events, local
// ejections and the scheme/stat/wake work AcceptFlit triggers — is
// captured in the shard's ordered commit log by the recording sinks
// installed at construction.
//
// Phase 2 (commit, coordinator): the logs are replayed in ascending shard
// order, which is ascending NodeID order — exactly the order in which the
// sequential walk would have produced the same effects. Event-wheel
// contents, NI ejection state, scheme callbacks (OnPacketEjected), stats
// and wakes therefore end up byte-identical to the active-set kernel.
// The NI walk, scheme hooks, event delivery and retirement all stay on
// the coordinator: PE Consume callbacks allocate packet IDs, release
// packets to the pool and may enqueue replies — inherently order-
// dependent global effects that the commit phase is the right place for.
//
// Determinism does not depend on the shard count, GOMAXPROCS or OS
// scheduling: the compute phase is pure per-router work and the commit
// order is fixed. TestParallelShardDeterminism proves it.
package network

import (
	"runtime"
	"sync"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// parallelMinAwake is the engagement threshold: below it the kernel steps
// the awake routers inline on the coordinator (still bit-identical — the
// recording sinks forward directly outside the compute phase), because
// waking workers costs more than a handful of router steps. The decision
// depends only on the deterministic awake count, so it is identical at
// every shard count.
const parallelMinAwake = 16

// commit-op kinds of a shard's log.
const (
	opFlit   = iota // DeliverFlit to the event wheel
	opCredit        // DeliverCredit to the event wheel
	opEject         // AcceptFlit at the emitting router's own NI
)

// commitOp is one deferred cross-component effect, replayed by the commit
// phase in emission order.
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

// shard is one static NodeID range [lo, hi) plus its reusable commit log.
// It implements router.EventSink for its routers: during the compute
// phase emissions are buffered; outside it (scheme plugin API, inline
// fallback) they forward straight to the network.
type shard struct {
	n      *Network
	lo, hi int
	log    []commitOp
	// ids is this cycle's segment of the sorted awake-router list falling
	// in [lo, hi) — sliced out by computeShards on the coordinator before
	// dispatch, so compute is O(awake in shard), not O(shard width).
	ids []int32
}

// DeliverFlit implements router.EventSink for the shard's routers.
func (sh *shard) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	if !sh.n.inCompute {
		sh.n.DeliverFlit(to, port, vc, f, cycle)
		return
	}
	sh.log = append(sh.log, commitOp{kind: opFlit, to: to, port: port, vc: vc, flit: f, at: cycle})
}

// DeliverCredit implements router.EventSink for the shard's routers.
func (sh *shard) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	if !sh.n.inCompute {
		sh.n.DeliverCredit(to, port, vc, delta, free, cycle)
		return
	}
	sh.log = append(sh.log, commitOp{kind: opCredit, to: to, port: port, vc: vc, delta: int8(delta), free: free, at: cycle})
}

// compute steps the shard's awake routers in ascending NodeID order —
// the same relative order the sequential walk visits them in.
func (sh *shard) compute(cycle sim.Cycle) {
	routers := sh.n.Routers
	for _, id := range sh.ids {
		routers[id].Step(cycle)
	}
}

// shardLocal wraps an NI as its router's LocalSink. CanAcceptHead always
// reads through (NI ejection state is only written on the coordinator or
// by this router's own later AcceptFlit, which sequential order also puts
// after the reads); AcceptFlit is deferred during the compute phase so
// its global effects — n.Stats, the latency histogram, the trace, the
// scheme's OnPacketEjected and the NI wake — run on the coordinator in
// NodeID order.
type shardLocal struct {
	sh *shard
	ni *NI
}

// CanAcceptHead implements router.LocalSink.
func (l *shardLocal) CanAcceptHead(p *message.Packet, cycle sim.Cycle) bool {
	return l.ni.CanAcceptHead(p, cycle)
}

// AcceptFlit implements router.LocalSink.
func (l *shardLocal) AcceptFlit(f message.Flit, arrival sim.Cycle) {
	if !l.sh.n.inCompute {
		l.ni.AcceptFlit(f, arrival)
		return
	}
	l.sh.log = append(l.sh.log, commitOp{kind: opEject, to: l.ni.Node, flit: f, at: arrival})
}

// initParallel resolves the shard count (0 = GOMAXPROCS, clamped to the
// node count), partitions the nodes into static contiguous NodeID ranges
// and installs the recording sinks.
func (n *Network) initParallel(shardCount int) {
	if shardCount == 0 {
		shardCount = runtime.GOMAXPROCS(0)
	}
	nodes := n.Topo.NumNodes()
	if shardCount > nodes {
		shardCount = nodes
	}
	n.shards = make([]shard, shardCount)
	base, rem := nodes/shardCount, nodes%shardCount
	lo := 0
	for i := range n.shards {
		size := base
		if i < rem {
			size++
		}
		sh := &n.shards[i]
		sh.n = n
		sh.lo, sh.hi = lo, lo+size
		// Pre-size the log: steady state truncates and reuses it, so the
		// per-emission append stays allocation-free once the high-water
		// mark is reached.
		sh.log = make([]commitOp, 0, 64)
		lo = sh.hi
		for id := sh.lo; id < sh.hi; id++ {
			n.Routers[id].SetSink(sh)
			n.Routers[id].SetLocal(&shardLocal{sh: sh, ni: n.NIs[id]})
		}
	}
	startComputePool()
}

// Shards returns the resolved shard count of the parallel kernel (0 for
// the other kernels).
func (n *Network) Shards() int { return len(n.shards) }

// ParallelPhases reports how many cycles engaged the concurrent compute
// path versus fell back to the inline walk (engagement telemetry for
// tests and benchmarks; deliberately not part of Stats, which is compared
// bit-for-bit across kernels).
func (n *Network) ParallelPhases() (compute, inline uint64) {
	return n.computePhases, n.inlinePhases
}

// stepParallel advances one cycle under the parallel kernel. Everything
// except the shard compute phase runs on the coordinating goroutine and
// is code-identical to stepActive.
func (n *Network) stepParallel() {
	cycle := n.cycle
	n.beginCycleFaults(cycle)
	n.deliverEvents(cycle, true)
	n.scheme.StartOfCycle(cycle)
	if len(n.routerList) >= parallelMinAwake {
		n.computePhases++
		sortAwake(n.routerList, n.routerSorted, n.awakeScratch)
		n.computeShards(cycle)
		n.commitShards()
	} else if len(n.routerList) > 0 {
		n.inlinePhases++
		n.walkRouters(cycle)
	}
	n.walkNIs(cycle)
	n.retireRouters(cycle)
	n.retireNIs()
	n.scheme.EndOfCycle(cycle)
	n.foldReconfigStats()
	n.cycle++
}

// computeShards runs phase 1: shard 0 on the coordinator (saves one
// handoff and keeps single-shard configurations pool-free), the rest on
// the shared compute pool. Each shard receives its contiguous segment of
// the sorted awake-router list (so per-cycle work is proportional to the
// awake count, not the node count); the WaitGroup join is the
// happens-before edge that publishes every worker's router mutations and
// log appends back to the coordinator.
func (n *Network) computeShards(cycle sim.Cycle) {
	list := n.routerList // ordered by stepParallel
	start := 0
	for i := range n.shards {
		sh := &n.shards[i]
		end := start
		for end < len(list) && int(list[end]) < sh.hi {
			end++
		}
		sh.ids = list[start:end]
		start = end
	}
	n.inCompute = true
	if len(n.shards) > 1 {
		n.computeWG.Add(len(n.shards) - 1)
		for i := 1; i < len(n.shards); i++ {
			computeQueue <- shardTask{sh: &n.shards[i], cycle: cycle, wg: &n.computeWG}
		}
	}
	n.shards[0].compute(cycle)
	if len(n.shards) > 1 {
		n.computeWG.Wait()
	}
	n.inCompute = false
}

// commitShards runs phase 2: replay every shard's log in ascending shard
// order — ascending NodeID order — reproducing the exact interleaving of
// wheel appends, ejections, scheme callbacks and wakes the sequential
// walk would have produced. Entries are zeroed as they are applied so the
// reused log array does not pin packet pointers past release.
func (n *Network) commitShards() {
	for i := range n.shards {
		sh := &n.shards[i]
		log := sh.log
		for j := range log {
			op := &log[j]
			switch op.kind {
			case opFlit:
				n.DeliverFlit(op.to, op.port, op.vc, op.flit, op.at)
			case opCredit:
				n.DeliverCredit(op.to, op.port, op.vc, int(op.delta), op.free, op.at)
			case opEject:
				n.NIs[op.to].AcceptFlit(op.flit, op.at)
			}
			*op = commitOp{}
		}
		sh.log = log[:0]
	}
}

// --- Shared compute pool ----------------------------------------------------

// shardTask is one shard's compute-phase work order.
type shardTask struct {
	sh    *shard
	cycle sim.Cycle
	wg    *sync.WaitGroup
}

var (
	computeOnce  sync.Once
	computeQueue chan shardTask
)

// startComputePool lazily starts the package-level worker pool all
// parallel-kernel networks share. A shared pool keeps the goroutine count
// bounded at GOMAXPROCS regardless of how many networks a sweep creates,
// and — unlike per-network workers — owns no network references, so
// finished networks remain collectable. Tasks never block on other tasks
// (compute does not submit), so the pool cannot deadlock; when sweeps
// oversubscribe it (UPP_JOBS × shards > workers) tasks simply queue,
// which costs speed, never correctness (see EXPERIMENTS.md on combining
// the two parallelism levels).
func startComputePool() {
	computeOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		computeQueue = make(chan shardTask, 8*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for t := range computeQueue {
					t.sh.compute(t.cycle)
					t.wg.Done()
				}
			}()
		}
	})
}
