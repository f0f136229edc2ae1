package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
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
	// Jobs is the worker count; <= 0 selects UPP_JOBS, then GOMAXPROCS.
	Jobs int
	// Progress receives the runners' status lines (may be nil). Runners
	// may call it from worker goroutines, so implementations must be safe
	// for concurrent use (a plain fmt.Fprintf to stderr is).
	Progress Progress
	// OnRun, when non-nil, is called after each run completes with the
	// number of finished runs and the batch size. Calls are serialized.
	OnRun func(done, total int)
	// run stands in for Run when set: a test collects the specs a runner
	// would simulate without simulating them.
	run func(RunSpec) (Point, error)
}

// jobs resolves the effective worker count: Jobs, else the UPP_JOBS host
// setting, else GOMAXPROCS.
func (o PoolOptions) jobs() (int, error) {
	if o.Jobs > 0 {
		return o.Jobs, nil
	}
	h, err := hostEnv()
	if err != nil {
		return 0, err
	}
	if h.jobs > 0 {
		return h.jobs, nil
	}
	return runtime.GOMAXPROCS(0), nil
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

// forEachIndex runs fn(0..n-1) across at most opts.jobs() concurrent
// workers and waits for all of them. fn must confine its writes to
// index-addressed slots (no two workers share an index). The only error
// is an unresolvable worker count, reported before any fn runs.
func forEachIndex(n int, opts PoolOptions, fn func(i int)) error {
	jobs, err := opts.jobs()
	if err != nil || n == 0 {
		return err
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return nil
}

// RunAll executes every spec across a bounded worker pool and returns the
// Points in input order. A failed run does not abort the batch: its slot
// holds a zero Point and the failure is reported in the returned
// *BatchError (nil when every run succeeded). The result is bit-identical
// at any worker count because each run is self-contained.
func RunAll(specs []RunSpec, opts PoolOptions) ([]Point, error) {
	points := make([]Point, len(specs))
	errs := make([]error, len(specs))
	var (
		mu   sync.Mutex
		done int
	)
	run := opts.run
	if run == nil {
		run = Run
	}
	if err := forEachIndex(len(specs), opts, func(i int) {
		points[i], errs[i] = run(specs[i])
		if opts.OnRun != nil {
			mu.Lock()
			done++
			opts.OnRun(done, len(specs))
			mu.Unlock()
		}
	}); err != nil {
		return nil, err
	}
	var failed []*RunError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &RunError{Index: i, Err: err})
		}
	}
	if failed != nil {
		return points, &BatchError{Failed: failed, Total: len(specs)}
	}
	return points, nil
}
