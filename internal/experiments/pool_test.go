package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// poolDur keeps the determinism batches fast enough to run unconditionally
// (including under -race in CI) while still moving real traffic.
var poolDur = Durations{Warmup: 200, Measure: 800}

// mixedSpecs is a batch covering every scheme plus the feature corners:
// faults with up*/down* routing, adaptive odd-even routing, and virtual
// cut-through. Determinism must hold across all of them because each run
// derives all randomness from its own Seed/FaultSeed.
func mixedSpecs() []RunSpec {
	base := topology.BaselineConfig()
	return []RunSpec{
		{Topo: base, Scheme: SchemeComposable, VCsPerVNet: 1,
			Pattern: traffic.UniformRandom{}, Rate: 0.03, Seed: 11, Dur: poolDur},
		{Topo: base, Scheme: SchemeRemoteControl, VCsPerVNet: 1,
			Pattern: traffic.Transpose{}, Rate: 0.02, Seed: 12, Dur: poolDur},
		{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 4,
			Pattern: traffic.UniformRandom{}, Rate: 0.05, Seed: 13, Dur: poolDur},
		{Topo: base, Scheme: SchemeNone, VCsPerVNet: 1,
			Pattern: traffic.UniformRandom{}, Rate: 0.005, Seed: 14, Dur: poolDur},
		{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 1,
			Pattern: traffic.UniformRandom{}, Rate: 0.02, Seed: 15, Dur: poolDur,
			Faults: 6, FaultSeed: 9, UseUpDown: true},
		{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 1,
			Pattern: traffic.BitComplement{}, Rate: 0.02, Seed: 16, Dur: poolDur,
			Adaptive: true},
		{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 1,
			Pattern: traffic.UniformRandom{}, Rate: 0.03, Seed: 17, Dur: poolDur,
			VCT: true},
	}
}

// oneShot makes each spec a curve of one run, labelled by its index.
func oneShot(specs ...RunSpec) []SweepCurve {
	cs := make([]SweepCurve, len(specs))
	for i, spec := range specs {
		cs[i] = SweepCurve{Spec: spec, Curve: Curve{Label: fmt.Sprint(i)}}
	}
	return cs
}

// TestParallelSweepDeterminism is the headline guarantee of the sweep
// engine: a serial loop over Run and Sweep at 1, 4 and 16 workers must
// produce bit-identical Points for the same specs. It runs in -short mode
// on purpose — CI's race-detector step runs `go test -race -short ./...`
// and this test is the one that pushes concurrent runs through every
// scheme.
func TestParallelSweepDeterminism(t *testing.T) {
	specs := mixedSpecs()
	serial := make([]Point, len(specs))
	for i, spec := range specs {
		pt, err := Run(spec)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = pt
	}
	for _, jobs := range []int{1, 4, 16} {
		cs := oneShot(specs...)
		if err := Sweep(cs, PoolOptions{Jobs: jobs}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, c := range cs {
			if len(c.Points) != 1 || c.Points[0] != serial[i] {
				t.Errorf("jobs=%d spec %d diverges:\nserial   %+v\nparallel %+v", jobs, i, serial[i], c.Points)
			}
		}
	}
}

// TestSweepRatesWithMatchesSerial checks that the rolling sweep
// reproduces the serial sweep exactly, including the stop-two-points-past
// -saturation truncation (points computed beyond the serial stopping index
// must be discarded).
func TestSweepRatesWithMatchesSerial(t *testing.T) {
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       1,
		Dur:        Durations{Warmup: 500, Measure: 2000},
	}
	rates := []float64{0.02, 0.03, 0.30, 0.35, 0.40, 0.45}
	want, err := SweepRatesWith(spec, rates, "serial", PoolOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 4, 16} {
		got, err := SweepRatesWith(spec, rates, "serial", PoolOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("jobs=%d sweep differs:\nserial   %+v\nparallel %+v", jobs, want, got)
		}
	}
}

// TestSweepPartialFailure: one bad run of a figure without rates must not
// poison the other curves — their Points are still measured — and the
// error, which fails the figure, names the failed curve.
func TestSweepPartialFailure(t *testing.T) {
	base := topology.BaselineConfig()
	good := RunSpec{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Rate: 0.02, Seed: 1, Dur: poolDur}
	cases := []struct {
		name    string
		bad     RunSpec
		wantErr string
	}{
		{
			name: "unknown scheme",
			bad: RunSpec{Topo: base, Scheme: "bogus", VCsPerVNet: 1,
				Pattern: traffic.UniformRandom{}, Rate: 0.02, Seed: 1, Dur: poolDur},
			wantErr: "unknown scheme",
		},
		{
			name: "impossible fault count",
			bad: RunSpec{Topo: base, Scheme: SchemeUPP, VCsPerVNet: 1,
				Pattern: traffic.UniformRandom{}, Rate: 0.02, Seed: 1, Dur: poolDur,
				Faults: 100000, FaultSeed: 3},
			wantErr: "could only fault",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := oneShot(good, tc.bad, good)
			err := Sweep(cs, PoolOptions{Jobs: 2})
			if err == nil {
				t.Fatal("bad spec did not surface an error")
			}
			if !strings.HasPrefix(err.Error(), "sweep 1: ") || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name curve 1 and mention %q", err, tc.wantErr)
			}
			if len(cs[1].Points) != 0 {
				t.Fatalf("failed curve holds points: %+v", cs[1].Points)
			}
			for _, i := range []int{0, 2} {
				if len(cs[i].Points) != 1 || cs[i].Points[0].Packets == 0 || cs[i].Points[0].TotalLat <= 0 {
					t.Fatalf("healthy curve %d poisoned by the failure: %+v", i, cs[i].Points)
				}
			}
			if cs[0].Points[0] != cs[2].Points[0] {
				t.Fatalf("identical specs diverged within the sweep: %+v vs %+v", cs[0].Points, cs[2].Points)
			}
		})
	}
}

// TestSweepRatesWithPartialFailure pins the serial error semantics of the
// rolling sweep: the curve keeps the points before the failing rate and
// the error wraps the failing rate's cause, and a failure at a rate past
// the stop, which a serial sweep never runs, is not reported even when
// it happens before the points that fix the stop finish.
func TestSweepRatesWithPartialFailure(t *testing.T) {
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       1,
		Dur:        poolDur,
		// Faults beyond what the mesh can absorb makes every run fail.
		Faults:    100000,
		FaultSeed: 3,
		UseUpDown: true,
	}
	c, err := SweepRatesWith(spec, []float64{0.02, 0.03}, "doomed", PoolOptions{Jobs: 2})
	if err == nil {
		t.Fatal("sweep of failing specs succeeded")
	}
	if !strings.Contains(err.Error(), "sweep doomed rate 0.0200") {
		t.Fatalf("error %q does not name the first failing rate", err)
	}
	if len(c.Points) != 0 {
		t.Fatalf("curve kept %d points from failed runs", len(c.Points))
	}

	// synthetic stands in for every run: rates from 0.30 up saturate, and
	// rate fail of the curve seeded 1 fails. At more than one job that
	// curve's run at rate wait, which fixes its stop, waits until the
	// failing one has started, so the failing one runs in any case.
	synthetic := func(jobs int, fail, wait float64) PoolOptions {
		failing := make(chan struct{})
		return PoolOptions{Jobs: jobs, run: func(spec RunSpec, _ func() bool) (Point, error) {
			if spec.Seed == 1 && spec.Rate == fail {
				close(failing)
				return Point{}, errors.New("injected failure")
			}
			if jobs > 1 && spec.Seed == 1 && spec.Rate == wait {
				<-failing
			}
			return Point{Rate: spec.Rate, TotalLat: 10, Saturated: spec.Rate >= 0.30}, nil
		}}
	}
	// other stops a point later than either curve of the cases, and beside
	// them it still completes.
	other, otherRates := spec, []float64{0.02, 0.03, 0.30, 0.35, 0.40}
	other.Seed = 2
	for _, tc := range []struct {
		label      string
		rates      []float64
		fail, wait float64
		err        string // the reported failure, empty for none
		kept       int
	}{
		{"past", []float64{0.02, 0.30, 0.35, 0.40}, 0.40, 0.35, "", 3},
		{"before", []float64{0.02, 0.03, 0.30, 0.35}, 0.03, 0, "sweep before rate 0.0300: injected failure", 1},
	} {
		failed := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		want, err := SweepRatesWith(spec, tc.rates, tc.label, synthetic(1, tc.fail, tc.wait))
		if failed(err) != tc.err || len(want.Points) != tc.kept {
			t.Fatalf("%s, serial: error %v and %d points, want %q and %d", tc.label, err, len(want.Points), tc.err, tc.kept)
		}
		wantOther, err := SweepRatesWith(other, otherRates, "other", synthetic(1, tc.fail, tc.wait))
		if err != nil || len(wantOther.Points) != 4 || wantOther.SaturationRate != 0.03 {
			t.Fatalf("%s, serial: the other curve is %+v (%v), want four points", tc.label, wantOther, err)
		}
		for _, jobs := range []int{1, 2, 4} {
			c, err := SweepRatesWith(spec, tc.rates, tc.label, synthetic(jobs, tc.fail, tc.wait))
			if failed(err) != tc.err || !reflect.DeepEqual(c, want) {
				t.Fatalf("%s, jobs=%d: curve %+v (error %v), want the serial %+v (error %q)", tc.label, jobs, c, err, want, tc.err)
			}
			cs := []SweepCurve{{Spec: spec, Rates: tc.rates, Curve: Curve{Label: tc.label}}, {Spec: other, Rates: otherRates, Curve: Curve{Label: "other"}}}
			err = Sweep(cs, synthetic(jobs, tc.fail, tc.wait))
			if failed(err) != tc.err || !reflect.DeepEqual(cs[0].Curve, want) || !reflect.DeepEqual(cs[1].Curve, wantOther) {
				t.Fatalf("%s beside other, jobs=%d: curves %+v and %+v (error %v), want the serial ones (error %q)", tc.label, jobs, cs[0].Curve, cs[1].Curve, err, tc.err)
			}
		}
	}
}

// TestSweepCancelsPastStop gives a sweep a point past its stop that would
// run for a million cycles (tens of seconds). Every point before it waits
// until it has started, so it is running when the stop is fixed: the pool
// cancels it without counting it in OnRun or in any cache counter, the
// sweep returns, and the curve is the one-worker sweep's (which never
// starts it). With the result cache on, the cancelled point stores no
// Point, and the warm-start checkpoint it may have written before the
// cancel still gives the point its uncached result. Then two curves whose
// stops differ, each with such a point, sweep together at 1, 2 and 4
// workers: each curve is its own serial sweep, and past one worker both
// long points are cancelled.
func TestSweepCancelsPastStop(t *testing.T) {
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       1,
		Dur:        Durations{Warmup: 500, Measure: 2000},
	}
	rates := []float64{0.02, 0.15, 0.20, 0.30}
	want, err := SweepRatesWith(spec, rates, "cancel", PoolOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Points) != 3 {
		t.Fatalf("serial sweep kept %d points, want 3 (it must stop before rate 0.30)", len(want.Points))
	}
	long := spec
	long.Rate, long.Dur.Measure = rates[3], 1_000_000
	dir := t.TempDir()
	t.Setenv("UPP_CACHE_DIR", dir)
	started := make(chan struct{})
	var longErr error
	var got Curve
	completed := 0
	_, misses, _, warmMisses := cacheDelta(func() {
		got, err = SweepRatesWith(spec, rates, "cancel", PoolOptions{Jobs: len(rates), OnRun: func(done, _ int) { completed = done }, run: func(s RunSpec, stop func() bool) (Point, error) {
			if s.Rate != long.Rate {
				<-started
				return runPoint(s, stop)
			}
			close(started)
			var pt Point
			pt, longErr = runPoint(long, stop)
			return pt, longErr
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(longErr, errCancelled) || completed != 3 || misses != 3 || warmMisses != 3 {
		t.Fatalf("the point past the stop ended with %v; OnRun counted %d runs, the cache %d misses and %d warm misses: want it cancelled and 3 each",
			longErr, completed, misses, warmMisses)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cancelling sweep differs:\nserial  %+v\nrolling %+v", want, got)
	}
	kept := spec
	kept.Rate = rates[0]
	for _, s := range []RunSpec{long, kept} {
		_, canonical, _ := canonicalSpec(s)
		if _, cached := loadCachedPoint(dir, cacheHash(canonical), canonical); cached != (s.Rate == kept.Rate) {
			t.Fatalf("rate %v: cached %v, want only the kept point cached", s.Rate, cached)
		}
	}
	spec.Rate = long.Rate
	warm, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("UPP_CACHE_DIR", "")
	if cold, err := Run(spec); err != nil || cold != warm {
		t.Fatalf("after the cancel, rate %v gives %+v; uncached %+v (%v)", spec.Rate, warm, cold, err)
	}

	other, otherRates := spec, []float64{0.02, 0.03, 0.15, 0.20, 0.30}
	other.Seed = 2
	wantOther, err := SweepRatesWith(other, otherRates, "other", PoolOptions{Jobs: 1})
	if err != nil || len(wantOther.Points) != 4 {
		t.Fatalf("serial sweep of the other curve kept %d points (%v), want 4 (it must stop before rate 0.30)", len(wantOther.Points), err)
	}
	for _, jobs := range []int{1, 2, 4} {
		// Each curve's point at 0.30 is the long one; past one worker its
		// point at 0.20, which fixes the stop, waits until it has started.
		started := map[uint64]chan struct{}{spec.Seed: make(chan struct{}), other.Seed: make(chan struct{})}
		cs := []SweepCurve{{Spec: spec, Rates: rates, Curve: Curve{Label: "cancel"}}, {Spec: other, Rates: otherRates, Curve: Curve{Label: "other"}}}
		completed, cancelled := 0, CancelledRuns()
		err := Sweep(cs, PoolOptions{Jobs: jobs, OnRun: func(done, _ int) { completed = done }, run: func(s RunSpec, stop func() bool) (Point, error) {
			switch {
			case s.Rate == long.Rate:
				close(started[s.Seed])
				s.Dur.Measure = long.Dur.Measure
			case s.Rate == 0.20 && jobs > 1:
				<-started[s.Seed]
			}
			return runPoint(s, stop)
		}})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		wantCancelled := uint64(0)
		if jobs > 1 {
			wantCancelled = 2
		}
		if cancelled = CancelledRuns() - cancelled; completed != 7 || cancelled != wantCancelled {
			t.Fatalf("jobs=%d: OnRun counted %d runs and the pool cancelled %d, want 7 and %d", jobs, completed, cancelled, wantCancelled)
		}
		if !reflect.DeepEqual(cs[0].Curve, want) || !reflect.DeepEqual(cs[1].Curve, wantOther) {
			t.Fatalf("jobs=%d: the two curves differ from their serial sweeps:\nserial  %+v\n        %+v\nrolling %+v\n        %+v", jobs, want, wantOther, cs[0].Curve, cs[1].Curve)
		}
	}
}

// TestSweepProgress checks the completion callback: called once per
// completed point, serialized, with a monotonically increasing done count
// and the sweep's point count as the total.
func TestSweepProgress(t *testing.T) {
	specs := mixedSpecs()[:4]
	var calls []int
	err := Sweep(oneShot(specs...), PoolOptions{
		Jobs: 4,
		OnRun: func(done, total int) {
			if total != len(specs) {
				t.Errorf("total = %d, want %d", total, len(specs))
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(specs) {
		t.Fatalf("OnRun called %d times, want %d", len(calls), len(specs))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("done counts not monotone: %v", calls)
		}
	}
}

// TestDefaultJobs: the worker count is Jobs, else GOMAXPROCS.
func TestDefaultJobs(t *testing.T) {
	if got := (PoolOptions{Jobs: 5}).jobs(); got != 5 {
		t.Fatalf("explicit Jobs ignored: %d", got)
	}
	for _, jobs := range []int{0, -2} {
		if got := (PoolOptions{Jobs: jobs}).jobs(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("Jobs %d -> %d, want GOMAXPROCS %d", jobs, got, runtime.GOMAXPROCS(0))
		}
	}
}

// FuzzSeedDeterminism fuzzes RunSpec seeds (the internal/message fuzz
// harness style): any (Seed, FaultSeed) pair must produce the same Point
// when run twice, and fault injection must either fail both times or
// succeed both times.
func FuzzSeedDeterminism(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0))
	f.Add(uint64(11), uint64(1234), uint8(3))
	f.Add(uint64(0xdeadbeef), uint64(0), uint8(1))
	fuzzDur := Durations{Warmup: 100, Measure: 400}
	f.Fuzz(func(t *testing.T, seed, faultSeed uint64, faults uint8) {
		spec := RunSpec{
			Topo:       topology.BaselineConfig(),
			Scheme:     SchemeUPP,
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Rate:       0.02,
			Seed:       seed,
			FaultSeed:  faultSeed,
			Faults:     int(faults % 8),
			Dur:        fuzzDur,
		}
		a, errA := Run(spec)
		b, errB := Run(spec)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error nondeterminism: %v vs %v", errA, errB)
		}
		if a != b {
			t.Fatalf("same spec, different points:\n%+v\n%+v", a, b)
		}
	})
}
