package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// cacheDelta runs f and returns how much each cache counter moved.
func cacheDelta(f func()) (hits, misses, warmHits, warmMisses uint64) {
	h0, m0, wh0, wm0 := CacheCounters()
	f()
	h1, m1, wh1, wm1 := CacheCounters()
	return h1 - h0, m1 - m0, wh1 - wh0, wm1 - wm0
}

// TestResultCacheBitIdentity is the cache acceptance test: with
// UPP_CACHE_DIR set, a cold sweep populates the cache, a repeat sweep is
// served entirely from it, and a warm-started sweep (results evicted,
// post-warmup checkpoints kept) re-measures from the checkpoints — all
// three producing the exact Curve an uncached sweep produces.
func TestResultCacheBitIdentity(t *testing.T) {
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       11,
		Dur:        Durations{Warmup: 300, Measure: 600},
	}
	rates := []float64{0.02, 0.05, 0.08}
	sweep := func() Curve {
		t.Helper()
		c, err := SweepRatesWith(spec, rates, "cache-test", PoolOptions{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Setenv("UPP_CACHE_DIR", "")
	ref := sweep()
	if len(ref.Points) != len(rates) {
		t.Fatalf("reference sweep returned %d points, want %d", len(ref.Points), len(rates))
	}

	dir := t.TempDir()
	t.Setenv("UPP_CACHE_DIR", dir)

	var cold Curve
	_, misses, _, warmMisses := cacheDelta(func() { cold = sweep() })
	if !reflect.DeepEqual(cold, ref) {
		t.Fatalf("cold cached sweep diverged from uncached reference:\nref:  %+v\ncold: %+v", ref, cold)
	}
	if misses != uint64(len(rates)) || warmMisses != uint64(len(rates)) {
		t.Fatalf("cold sweep: %d misses / %d warm misses, want %d of each", misses, warmMisses, len(rates))
	}

	var hit Curve
	hits, misses, _, _ := cacheDelta(func() { hit = sweep() })
	if !reflect.DeepEqual(hit, ref) {
		t.Fatalf("cache-hit sweep diverged from uncached reference:\nref: %+v\nhit: %+v", ref, hit)
	}
	if hits != uint64(len(rates)) || misses != 0 {
		t.Fatalf("repeat sweep: %d hits / %d misses, want %d / 0", hits, misses, len(rates))
	}

	// Evict the results but keep the warm-start checkpoints: the sweep
	// must re-measure from the post-warmup snapshots and still match.
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}
	var warm Curve
	_, misses, warmHits, _ := cacheDelta(func() { warm = sweep() })
	if !reflect.DeepEqual(warm, ref) {
		t.Fatalf("warm-started sweep diverged from uncached reference:\nref:  %+v\nwarm: %+v", ref, warm)
	}
	if misses != uint64(len(rates)) || warmHits != uint64(len(rates)) {
		t.Fatalf("warm sweep: %d misses / %d warm hits, want %d of each", misses, warmHits, len(rates))
	}

	// UPP_CACHE_WARM=0 opts out of warm-starting but keeps result caching:
	// evict again and the sweep must run fully cold, still bit-identical.
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}
	t.Setenv("UPP_CACHE_WARM", "0")
	var optOut Curve
	_, misses, warmHits, warmMisses = cacheDelta(func() { optOut = sweep() })
	if !reflect.DeepEqual(optOut, ref) {
		t.Fatalf("warm-disabled sweep diverged from uncached reference:\nref: %+v\ngot: %+v", ref, optOut)
	}
	if misses != uint64(len(rates)) || warmHits != 0 || warmMisses != 0 {
		t.Fatalf("warm-disabled sweep: %d misses / %d warm hits / %d warm misses, want %d / 0 / 0",
			misses, warmHits, warmMisses, len(rates))
	}
}

// TestCacheUncacheableSpecs pins the canonicalization refusals: a spec
// with a SchemeOverride closure, a tracer or an unregistered pattern has
// no content address, so Run must simulate and leave the cache untouched.
func TestCacheUncacheableSpecs(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.02,
		Seed:       11,
		Dur:        Durations{Warmup: 200, Measure: 300},
	}
	spec.SchemeOverride = func(t *topology.Topology) (network.Scheme, error) { return MakeScheme(SchemeUPP, t) }
	hits, misses, warmHits, warmMisses := cacheDelta(func() {
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	if hits != 0 || misses != 0 || warmHits != 0 || warmMisses != 0 {
		t.Fatalf("uncacheable spec touched the cache: hits=%d misses=%d warmHits=%d warmMisses=%d",
			hits, misses, warmHits, warmMisses)
	}
	if _, _, ok := canonicalSpec(spec); ok {
		t.Fatal("canonicalSpec accepted a SchemeOverride spec")
	}
	spec.SchemeOverride = nil
	spec.TraceLimit = 1
	if _, _, ok := canonicalSpec(spec); ok {
		t.Fatal("canonicalSpec accepted a traced spec")
	}
}

// TestCacheRejectsMismatchedEntry pins the exact-spec verification: a
// result file whose stored spec bytes differ from the canonical spec (a
// hash collision, a foreign or hand-edited file) is a miss, never a wrong
// answer.
func TestCacheRejectsMismatchedEntry(t *testing.T) {
	dir := t.TempDir()
	_, canonical, ok := canonicalSpec(RunSpec{
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

// TestCachedFiguresAreCacheable: every spec these runners build has a
// content address, so a re-run of the figure is served from the cache. A
// SchemeOverride that only restates a named scheme would fail here.
func TestCachedFiguresAreCacheable(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(Durations, PoolOptions) ([]Table, error)
	}{
		{"fig7", Fig7}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11}, {"fault_sweep", FaultSweep},
		{"tail_latency", TailLatency}, {"ablation_adaptive", AblationAdaptive}, {"ablation_depth", AblationBufferDepth},
		{"scale", Scale},
	} {
		t.Run(fig.name, func(t *testing.T) {
			var mu sync.Mutex
			seen, refused := 0, 0
			opts := PoolOptions{Jobs: 2, run: func(spec RunSpec) (Point, error) {
				_, _, ok := canonicalSpec(spec)
				mu.Lock()
				defer mu.Unlock()
				seen++
				if !ok {
					refused++
				}
				return Point{Rate: spec.Rate, TotalLat: 1, Throughput: spec.Rate}, nil
			}}
			if _, err := fig.run(microDur, opts); err != nil {
				t.Fatal(err)
			}
			if seen == 0 || refused != 0 {
				t.Fatalf("canonicalSpec refused %d of the %d specs the runner built", refused, seen)
			}
		})
	}
}

// TestTailLatencyServedFromCache runs the figure cold and again against
// one cache directory: the re-run is twelve hits and no miss, and both
// print the uncached run's tables byte for byte.
func TestTailLatencyServedFromCache(t *testing.T) {
	dur := Durations{Warmup: 200, Measure: 400}
	render := func() string {
		ts, err := TailLatency(dur, poolOpts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range ts {
			b.WriteString(tb.Render())
		}
		return b.String()
	}
	t.Setenv("UPP_CACHE_DIR", "")
	want := render()
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	var cold, again string
	_, misses, _, _ := cacheDelta(func() { cold = render() })
	if misses != 12 {
		t.Fatalf("cold run: %d misses, want 12", misses)
	}
	hits, misses, _, _ := cacheDelta(func() { again = render() })
	if hits != 12 || misses != 0 {
		t.Fatalf("re-run: %d hits / %d misses, want 12 / 0", hits, misses)
	}
	if cold != want || again != want {
		t.Fatalf("cached tables differ from the uncached run:\nuncached:\n%s\ncold:\n%s\nre-run:\n%s", want, cold, again)
	}
}
