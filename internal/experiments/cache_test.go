package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// cacheDelta runs f and returns how much each result-cache counter moved.
func cacheDelta(f func()) (hits, misses uint64) {
	h0, m0, _, _ := CacheCounters()
	f()
	h1, m1, _, _ := CacheCounters()
	return h1 - h0, m1 - m0
}

// TestResultCacheBitIdentity is the cache acceptance test: with
// UPP_CACHE_DIR set, a cold sweep populates the cache with results only
// (no warm/ directory, nothing but results/), and a repeat sweep is served
// entirely from it — both producing the exact Curve an uncached sweep
// produces. It runs for the paper's UPP and for one with RunSpec.UPP set,
// whose result key must differ from the default's.
func TestResultCacheBitIdentity(t *testing.T) {
	base := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       11,
		Dur:        Durations{Warmup: 300, Measure: 600},
	}
	tuned := base
	tuned.UPP = core.Config{Threshold: 100, SignalGap: 12}
	defKey, _ := canonicalSpec(base)
	tunedKey, ok := canonicalSpec(tuned)
	if !ok || cacheHash(defKey) == cacheHash(tunedKey) {
		t.Fatalf("UPP settings do not reach the result key (canonicalizable %v)", ok)
	}
	rates := []float64{0.02, 0.05, 0.08}
	for _, tc := range []struct {
		name string
		spec RunSpec
	}{{"default", base}, {"upp_config", tuned}} {
		spec := tc.spec
		t.Run(tc.name, func(t *testing.T) {
			sweep := func() Curve {
				t.Helper()
				c, err := SweepRatesWith(spec, rates, "cache-test", PoolOptions{Jobs: 1})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			ref := sweep()
			if len(ref.Points) != len(rates) {
				t.Fatalf("reference sweep returned %d points, want %d", len(ref.Points), len(rates))
			}

			dir := t.TempDir()
			t.Setenv("UPP_CACHE_DIR", dir)

			var cold Curve
			_, misses := cacheDelta(func() { cold = sweep() })
			if !reflect.DeepEqual(cold, ref) {
				t.Fatalf("cold cached sweep diverged from uncached reference:\nref:  %+v\ncold: %+v", ref, cold)
			}
			if misses != uint64(len(rates)) {
				t.Fatalf("cold sweep: %d misses, want %d", misses, len(rates))
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "results" {
				t.Fatalf("cold sweep left %v in the cache (%v), want results/ only (no warm/)", entries, err)
			}

			var hit Curve
			hits, misses := cacheDelta(func() { hit = sweep() })
			if !reflect.DeepEqual(hit, ref) {
				t.Fatalf("cache-hit sweep diverged from uncached reference:\nref: %+v\nhit: %+v", ref, hit)
			}
			if hits != uint64(len(rates)) || misses != 0 {
				t.Fatalf("repeat sweep: %d hits / %d misses, want %d / 0", hits, misses, len(rates))
			}
		})
	}
}

// TestCacheUncacheableSpecs pins the canonicalization refusals: a spec
// with the random binding (its stream is in no snapshot), a tracer or an
// unregistered pattern has no content address, so Run must simulate and
// leave the cache untouched. A spec Assemble rejects — UPP settings under
// another scheme — fails naming both and stores nothing.
func TestCacheUncacheableSpecs(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("UPP_CACHE_DIR", dir)
	base := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.02,
		Seed:       11,
		Dur:        Durations{Warmup: 200, Measure: 300},
	}
	for _, tc := range []struct {
		name    string
		edit    func(*RunSpec)
		wantErr []string // Run's error names each; nil: Run succeeds uncached
	}{
		{"random binding", func(s *RunSpec) { s.UPP.Binding = "random" }, nil},
		{"UPP settings under remote_control", func(s *RunSpec) { s.Scheme, s.UPP.Threshold = SchemeRemoteControl, 100 },
			[]string{`"remote_control"`, "Threshold:100"}},
	} {
		spec := base
		tc.edit(&spec)
		var err error
		hits, misses := cacheDelta(func() { _, err = Run(spec) })
		if tc.wantErr == nil {
			if err != nil || misses != 0 {
				t.Fatalf("%s: %v, %d misses: want an uncached run", tc.name, err, misses)
			}
			if _, ok := canonicalSpec(spec); ok {
				t.Fatalf("%s: canonicalSpec accepted the spec", tc.name)
			}
		}
		for _, want := range tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: Run error %v does not name %s", tc.name, err, want)
			}
		}
		if hits != 0 {
			t.Fatalf("%s was served from the cache: hits=%d", tc.name, hits)
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "results")); len(entries) != 0 {
		t.Fatalf("uncacheable specs stored %d results", len(entries))
	}
	base.TraceLimit = 1
	if _, ok := canonicalSpec(base); ok {
		t.Fatal("canonicalSpec accepted a traced spec")
	}
}

// TestCacheRejectsMismatchedEntry pins the exact-spec verification: a
// result file whose stored spec bytes differ from the canonical spec (a
// hash collision, a foreign or hand-edited file) is a miss, never a wrong
// answer.
func TestCacheRejectsMismatchedEntry(t *testing.T) {
	dir := t.TempDir()
	canonical, ok := canonicalSpec(RunSpec{
		Topo:    topology.BaselineConfig(),
		Scheme:  SchemeUPP,
		Pattern: traffic.UniformRandom{},
		Rate:    0.02,
		Seed:    11,
		Dur:     Durations{Warmup: 100, Measure: 100},
	})
	if !ok {
		t.Fatal("spec should be canonicalizable")
	}
	hash := cacheHash(canonical)
	storeCachedPoint(dir, hash, []byte(`{"format":1,"tampered":true}`), Point{Rate: 99})
	if _, ok := loadCachedPoint(dir, hash, canonical); ok {
		t.Fatal("cache served a result whose stored spec does not match")
	}
	storeCachedPoint(dir, hash, canonical, Point{Rate: 0.02})
	if pt, ok := loadCachedPoint(dir, hash, canonical); !ok || pt.Rate != 0.02 {
		t.Fatalf("exact-match entry not served back: ok=%v pt=%+v", ok, pt)
	}
}

// TestCachedFiguresAreCacheable: every spec the sweep figures build, the
// closed-loop tables' and the full-system figure's included, has a content address, so a re-run of the
// figure is served from the cache — all but the random binding's curve of
// ablation_binding, and exactly its specs.
func TestCachedFiguresAreCacheable(t *testing.T) {
	for _, fig := range sweepFigures() {
		t.Run(fig.id, func(t *testing.T) {
			var mu sync.Mutex
			seen, refused := 0, 0
			opts := PoolOptions{Jobs: 2, run: func(spec RunSpec, _ func() bool) (Point, error) {
				_, ok := canonicalSpec(spec)
				random := fig.id == "ablation_binding" && spec.UPP.Binding == "random"
				mu.Lock()
				defer mu.Unlock()
				seen++
				if !ok {
					refused++
				}
				if ok == random {
					t.Errorf("binding %q rate %v: canonicalSpec ok = %v", spec.UPP.Binding, spec.Rate, ok)
				}
				return Point{Rate: spec.Rate, TotalLat: 1, Throughput: spec.Rate}, nil
			}}
			if err := Sweep(fig.curves(microDur), opts); err != nil {
				t.Fatal(err)
			}
			if seen == 0 || fig.id == "ablation_binding" && refused == 0 {
				t.Fatalf("%d specs, %d refused", seen, refused)
			}
		})
	}
}

// TestWorkloadServedFromCache: a closed-loop spec has a content address
// like a rate-driven one. The re-run, with durations a workload run never
// reads, is one hit returning the cold run's Point, which is the uncached
// run's. The key
// maps every horizon <= 0 to the default and leaves a workload's rate out,
// yet the spec with a negative MaxCycles or Rate fails naming the field. A
// recorded run's trace cannot come from a cache, so it is never cached.
func TestWorkloadServedFromCache(t *testing.T) {
	spec := RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, Workload: "all_to_all", Seed: 11}
	run := func(spec RunSpec) Point {
		t.Helper()
		pt, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	want := run(spec)
	if !want.Completed || want.FinishCycle == 0 {
		t.Fatalf("reference run did not complete: %+v", want)
	}
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	var cold, hit Point
	_, misses := cacheDelta(func() { cold = run(spec) })
	if misses != 1 {
		t.Fatalf("cold run: %d misses, want 1", misses)
	}
	timed := spec
	timed.Dur = QuickDurations()
	hits, misses := cacheDelta(func() { hit = run(timed) })
	if hits != 1 || misses != 0 {
		t.Fatalf("re-run: %d hits / %d misses, want 1 / 0", hits, misses)
	}
	if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(hit, want) {
		t.Fatalf("cached runs differ from the uncached one:\nuncached: %+v\ncold:     %+v\nhit:      %+v", want, cold, hit)
	}
	neg, rate := spec, spec
	neg.MaxCycles, rate.Rate = -3, -1
	for field, bad := range map[string]RunSpec{"MaxCycles": neg, "Rate": rate} {
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "RunSpec."+field+" ") {
			t.Errorf("%s out of range with the valid spec cached: err %v, want one naming the field", field, err)
		}
	}

	spec.Record = true
	var rec Point
	hits, misses = cacheDelta(func() { rec = run(spec) })
	if hits != 0 || misses != 0 || rec.Trace == nil || len(rec.Trace.Records) == 0 {
		t.Fatalf("recorded run: %d hits / %d misses, trace %v: want an uncached run with its trace", hits, misses, rec.Trace)
	}
	rec.Trace = nil
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("recording changed the run:\nplain:    %+v\nrecorded: %+v", want, rec)
	}
}

// TestTailLatencyServedFromCache runs the figure cold and again against
// one cache directory: the re-run is twelve hits and no miss, and both
// print the uncached run's tables byte for byte.
func TestTailLatencyServedFromCache(t *testing.T) {
	dur := Durations{Warmup: 200, Measure: 400}
	render := func() string {
		fig := sweepFigure(t, "tail_latency")
		ts, err := figureTables(fig, fig.curves(dur), poolOpts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range ts {
			b.WriteString(tb.Render())
		}
		return b.String()
	}
	want := render()
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	var cold, again string
	_, misses := cacheDelta(func() { cold = render() })
	if misses != 12 {
		t.Fatalf("cold run: %d misses, want 12", misses)
	}
	hits, misses := cacheDelta(func() { again = render() })
	if hits != 12 || misses != 0 {
		t.Fatalf("re-run: %d hits / %d misses, want 12 / 0", hits, misses)
	}
	if cold != want || again != want {
		t.Fatalf("cached tables differ from the uncached run:\nuncached:\n%s\ncold:\n%s\nre-run:\n%s", want, cold, again)
	}
}

// TestSweepRerunServedFromCache: a two-worker sweep of three curves, run
// cold into a cache, is then served entirely from it five times over;
// every run's curves are the cold run's. A re-run starts points past a
// curve's stop that the cold run cancelled and so never stored; the pool
// cancels them again, and a cancelled run counts in no counter.
func TestSweepRerunServedFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	spec := RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Dur: Durations{Warmup: 500, Measure: 2000}}
	sweep := func() []SweepCurve {
		t.Helper()
		var cs []SweepCurve
		for i, rates := range [][]float64{{0.02, 0.15, 0.20, 0.30, 0.35}, {0.02, 0.03, 0.15, 0.20, 0.30}, {0.01, 0.02, 0.15, 0.20, 0.30}} {
			spec.Seed = uint64(i + 1)
			cs = append(cs, SweepCurve{Spec: spec, Rates: rates, Curve: Curve{Label: fmt.Sprint(i)}})
		}
		if err := Sweep(cs, PoolOptions{Jobs: 2}); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	cold := sweep()
	kept := uint64(0)
	for _, c := range cold {
		kept += uint64(len(c.Points))
	}
	var again []SweepCurve
	for i := range 5 {
		// A point past a stop the cold run finished is a hit too.
		if hits, misses := cacheDelta(func() { again = sweep() }); hits < kept || misses != 0 {
			t.Fatalf("re-run %d: %d hits / %d misses, want at least %d / 0", i, hits, misses, kept)
		}
		if !reflect.DeepEqual(again, cold) {
			t.Fatalf("re-run %d differs from the cold run:\ncold %+v\nnow  %+v", i, cold, again)
		}
	}
}
