package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the parallel sweep engine. Every run described by a RunSpec
// is an independent, seed-driven simulation: all randomness derives from
// the spec's Seed/FaultSeed, the topology and network are built fresh per
// run, and the only cross-run state is the mutex-guarded (and immutable
// once built) composable-routing table cache. That independence makes the
// sweep layer embarrassingly parallel, and it is what the determinism
// guarantee below rests on: RunAll over the same specs produces
// bit-identical Points at any worker count, including jobs=1 and the
// plain serial loop (enforced by TestParallelSweepDeterminism).

// Progress receives live status lines from long runners (may be nil).
type Progress func(format string, args ...interface{})

func (p Progress) log(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// PoolOptions configures RunAll and the runners built on it.
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
	// number of completed runs and the batch size (a sweep's: its rates).
	// A run the pool cancels (a sweep's point past its stop) does not
	// complete and is not counted. Calls are serialized.
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

// RunError records one failed spec within a batch.
type RunError struct {
	Index int // position in the specs slice passed to RunAll
	Err   error
}

// Error implements error.
func (e *RunError) Error() string { return fmt.Sprintf("spec %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// BatchError aggregates the per-run failures of one RunAll batch. The
// successful runs' Points are still returned; failed indices hold zero
// Points.
type BatchError struct {
	Failed []*RunError
	Total  int
}

// Error implements error.
func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiments: %d of %d runs failed", len(e.Failed), e.Total)
	for i, re := range e.Failed {
		if i == 3 {
			fmt.Fprintf(&b, "; and %d more", len(e.Failed)-i)
			break
		}
		fmt.Fprintf(&b, "; %v", re)
	}
	return b.String()
}

// Unwrap exposes the individual run errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, re := range e.Failed {
		errs[i] = re
	}
	return errs
}

// errCancelled is the error of a run the pool stopped because no caller
// wanted its result any more; it reaches no caller.
var errCancelled = errors.New("experiments: run cancelled")

// dispatch runs fn(0..n-1) on at most opts.jobs() workers, the calling
// goroutine among them. A worker takes the next index as soon as it is
// free, so no index waits for a slower one. After each fn returns, settle
// (when non-nil) is called with its index, serialized, and returns how
// many leading indices are still wanted: no index at or past that bound
// starts afterwards, and the stop func handed to one already running past
// it reports true. fn must confine its writes to index-addressed slots.
func dispatch(n int, opts PoolOptions, fn func(i int, stop func() bool), settle func(i int) int) {
	var (
		mu     sync.Mutex
		next   int
		wanted atomic.Int64
		wg     sync.WaitGroup
	)
	wanted.Store(int64(n))
	work := func() {
		for {
			mu.Lock()
			i := next
			if int64(i) >= wanted.Load() {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			fn(i, func() bool { return int64(i) >= wanted.Load() })
			if settle != nil {
				mu.Lock()
				wanted.Store(min(wanted.Load(), int64(settle(i))))
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

// runEach runs every spec through the pool's run entry (Run, unless a
// test set run) into points and errs. After each run the pool did not
// cancel, OnRun is called and then keep (when non-nil), which returns how
// many leading specs are still wanted, as dispatch's settle does.
func (o PoolOptions) runEach(specs []RunSpec, points []Point, errs []error, keep func(i int) int) {
	run := o.run
	if run == nil {
		run = runPoint
	}
	done := 0
	dispatch(len(specs), o, func(i int, stop func() bool) {
		points[i], errs[i] = run(o.machine(specs[i]), stop)
	}, func(i int) int {
		if errors.Is(errs[i], errCancelled) {
			return len(specs)
		}
		done++
		if o.OnRun != nil {
			o.OnRun(done, len(specs))
		}
		if keep == nil {
			return len(specs)
		}
		return keep(i)
	})
}

// RunAll executes every spec across a bounded worker pool and returns the
// Points in input order. A failed run does not abort the batch: its slot
// holds a zero Point and the failure is reported in the returned
// *BatchError (nil when every run succeeded). Each spec runs with the
// execution fields it leaves zero taken from opts. The result is
// bit-identical at any worker count because each run is self-contained.
func RunAll(specs []RunSpec, opts PoolOptions) ([]Point, error) {
	points := make([]Point, len(specs))
	errs := make([]error, len(specs))
	opts.runEach(specs, points, errs, nil)
	var failed []*RunError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &RunError{Index: i, Err: err})
		}
	}
	if failed == nil {
		return points, nil
	}
	return points, &BatchError{Failed: failed, Total: len(specs)}
}
