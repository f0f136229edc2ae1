package experiments

import (
	"errors"
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

// TestParallelSweepDeterminism is the headline guarantee of the sweep
// engine: a serial loop over Run and RunAll at 1, 4 and 16 workers must
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
		got, err := RunAll(specs, PoolOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(serial, got) {
			for i := range serial {
				if serial[i] != got[i] {
					t.Errorf("jobs=%d spec %d diverges:\nserial   %+v\nparallel %+v",
						jobs, i, serial[i], got[i])
				}
			}
			t.Fatalf("jobs=%d: parallel points differ from serial", jobs)
		}
	}
}

// TestSweepRatesWithMatchesSerial checks that the wave-parallel sweep
// reproduces the serial sweep exactly, including the stop-two-points-past
// -saturation truncation (points a wave computes beyond the serial
// stopping index must be discarded).
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

// TestRunAllPartialFailure: one bad spec must not poison the batch — the
// other runs' Points are still returned and the aggregate error names the
// failed index.
func TestRunAllPartialFailure(t *testing.T) {
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
			specs := []RunSpec{good, tc.bad, good}
			pts, err := RunAll(specs, PoolOptions{Jobs: 2})
			if err == nil {
				t.Fatal("bad spec did not surface an error")
			}
			var batch *BatchError
			if !errors.As(err, &batch) {
				t.Fatalf("error is %T, want *BatchError: %v", err, err)
			}
			if batch.Total != 3 || len(batch.Failed) != 1 || batch.Failed[0].Index != 1 {
				t.Fatalf("aggregation wrong: %+v", batch)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if pts[1] != (Point{}) {
				t.Fatalf("failed slot holds a non-zero point: %+v", pts[1])
			}
			for _, i := range []int{0, 2} {
				if pts[i].Packets == 0 || pts[i].TotalLat <= 0 {
					t.Fatalf("healthy run %d poisoned by the failure: %+v", i, pts[i])
				}
			}
			if pts[0] != pts[2] {
				t.Fatalf("identical specs diverged within the batch: %+v vs %+v", pts[0], pts[2])
			}
		})
	}
}

// TestSweepRatesWithPartialFailure pins the serial error semantics of the
// wave-parallel sweep: the curve keeps the points before the failing rate
// and the error wraps the failing rate's cause.
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
}

// TestRunAllProgress checks the completion callback: called once per run,
// serialized, with a monotonically increasing done count.
func TestRunAllProgress(t *testing.T) {
	specs := mixedSpecs()[:4]
	var calls []int
	_, err := RunAll(specs, PoolOptions{
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

// TestDefaultJobs covers the worker-count chain: explicit Jobs, then
// UPP_JOBS, then GOMAXPROCS. An unparsable UPP_JOBS is an error that
// reaches RunAll's caller (TestHostEnv has the parsing table), except
// under an explicit Jobs, which never consults the environment.
func TestDefaultJobs(t *testing.T) {
	t.Setenv("UPP_JOBS", "3")
	if got, err := (PoolOptions{}).jobs(); err != nil || got != 3 {
		t.Fatalf("UPP_JOBS=3 -> %d, %v", got, err)
	}
	if got, err := (PoolOptions{Jobs: 5}).jobs(); err != nil || got != 5 {
		t.Fatalf("explicit Jobs ignored: %d, %v", got, err)
	}
	t.Setenv("UPP_JOBS", "")
	if got, err := (PoolOptions{}).jobs(); err != nil || got != runtime.GOMAXPROCS(0) {
		t.Fatalf("unset UPP_JOBS -> %d, %v", got, err)
	}
	t.Setenv("UPP_JOBS", "many")
	if _, err := RunAll(nil, PoolOptions{}); err == nil || !strings.Contains(err.Error(), "UPP_JOBS") {
		t.Fatalf("RunAll under UPP_JOBS=many: err = %v, want one naming UPP_JOBS", err)
	}
	if got, err := (PoolOptions{Jobs: 2}).jobs(); err != nil || got != 2 {
		t.Fatalf("explicit Jobs under a bad UPP_JOBS -> %d, %v", got, err)
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
