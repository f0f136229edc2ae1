package experiments

import (
	"cmp"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel sweep engine. Every run described by a RunSpec
// is an independent, seed-driven simulation: all randomness derives from
// the spec's Seed/FaultSeed, the topology and network are built fresh per
// run, and the only cross-run state is the mutex-guarded (and immutable
// once built) composable-routing table cache. That independence makes the
// sweep layer embarrassingly parallel, and it is what the determinism
// guarantee rests on: Sweep over the same curves produces bit-identical
// Points at any worker count, including jobs=1 and the plain serial loop
// (enforced by TestParallelSweepDeterminism).

// Progress receives live status lines from long runners (may be nil).
type Progress func(format string, args ...interface{})

func (p Progress) log(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// PoolOptions configures Sweep and the runners built on it.
type PoolOptions struct {
	// Jobs is the worker count; <= 0 selects GOMAXPROCS.
	Jobs int
	// Kernel, Shards and RouterArch fill the RunSpec fields of the same
	// names in every spec handed to a worker that leaves them zero; an
	// explicit spec field wins (router_compare sweeps RouterArch).
	Kernel     string
	Shards     int
	RouterArch string
	// Progress receives the runners' status lines (may be nil). Runners
	// may call it from worker goroutines, so implementations must be safe
	// for concurrent use (a plain fmt.Fprintf to stderr is).
	Progress Progress
	// OnRun, when non-nil, is called after each run completes with the
	// number of completed runs and the batch size (a sweep's: the points
	// of all its curves). A run the pool cancels (a point past its curve's
	// stop) does not complete and is not counted; it counts in
	// CancelledRuns instead. Calls are serialized.
	OnRun func(done, total int)
	// run stands in for the pool's every run when set (it receives the
	// run's stop check, see dispatch): a test collects the specs a runner
	// would simulate without simulating them.
	run func(spec RunSpec, stop func() bool) (Point, error)
}

// jobs resolves the effective worker count: Jobs, else GOMAXPROCS.
func (o PoolOptions) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// machine fills the kernel, shard count and router arch that spec leaves
// zero from the options.
func (o PoolOptions) machine(spec RunSpec) RunSpec {
	spec.Kernel = cmp.Or(spec.Kernel, o.Kernel)
	spec.Shards = cmp.Or(spec.Shards, o.Shards)
	spec.RouterArch = cmp.Or(spec.RouterArch, o.RouterArch)
	return spec
}

// errCancelled is the error of a run the pool stopped because no caller
// wanted its result any more; it reaches no caller.
var errCancelled = errors.New("experiments: run cancelled")

// cancelledRuns counts the runs the pool has cancelled, process-wide.
var cancelledRuns atomic.Uint64

// CancelledRuns reports how many runs the pool has cancelled in this
// process: points past a curve's stop that were already running when the
// stop was fixed. Their work is discarded, and they count in none of
// CacheCounters' counters and in no OnRun call.
func CancelledRuns() uint64 { return cancelledRuns.Load() }

// dispatch runs fn(0..n-1) on at most opts.jobs() workers, the calling
// goroutine among them. A worker takes the next index still wanted as soon
// as it is free, so no index waits for a slower one. After each fn
// returns, settle (when non-nil) is called with its index, serialized, and
// returns indices no longer wanted: none of them starts afterwards, and
// the stop func handed to one already running reports true. fn must
// confine its writes to index-addressed slots.
func dispatch(n int, opts PoolOptions, fn func(i int, stop func() bool), settle func(i int) []int) {
	var (
		mu      sync.Mutex
		next    int
		dropped = make([]atomic.Bool, n)
		wg      sync.WaitGroup
	)
	work := func() {
		for {
			mu.Lock()
			for next < n && dropped[next].Load() {
				next++
			}
			i := next
			if i == n {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			fn(i, dropped[i].Load)
			if settle != nil {
				mu.Lock()
				for _, j := range settle(i) {
					dropped[j].Store(true)
				}
				mu.Unlock()
			}
		}
	}
	workers := min(opts.jobs(), n)
	wg.Add(max(workers-1, 0))
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
