package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) benchmarkJSON {
	t.Helper()
	spec, err := loadBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitDeclaredMetrics runs every workload, untraced and
// traced, at 1/200 of its simulated length and checks that it reports
// exactly the metrics BENCHMARK.json names, with their units, and that no
// operation fails.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	defs := workloads()
	if len(defs) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(defs), len(spec.Workloads))
	}
	for i, w := range defs {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json has %q (%q)", i, w.Name, w.Why, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r := w.Run(runOpts{Seed: 11, Traced: traced, Div: 200, Setups: 1, Par: 2, OutDir: t.TempDir()})
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Failures)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s]: reported %v (present=%v)", w.Name, traced, m.Name, m.Unit, got, ok)
				}
				// At this length no packet may have completed, so only
				// the host metrics are sure to be non-zero.
				if !traced && !strings.HasPrefix(m.Name, "sim_") && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCompareFlagsSlowdown checks -compare's verdicts on synthetic
// results: a slowdown past the bound regresses, one inside it does not, a
// moved simulated result regresses, a failed run is unresolved.
func TestCompareFlagsSlowdown(t *testing.T) {
	spec := loadSpec(t)
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	base := func() resultFile {
		m := map[string]metric{}
		for _, d := range endToEndMetrics {
			m[d.Name] = metric{Value: 100, Unit: d.Unit}
		}
		return resultFile{Seed: 11, Workloads: map[string]report{"w": {Correct: true, Attempted: 1, Metrics: m}}}
	}
	with := func(name string, v float64, failed int) resultFile {
		f := base()
		r := f.Workloads["w"]
		r.Metrics[name] = metric{Value: v, Unit: r.Metrics[name].Unit}
		r.Failed = failed
		f.Workloads["w"] = r
		return f
	}
	slower := func(name string, beyond float64) resultFile {
		return with(name, 100*(1-bound[name]-beyond), 0)
	}
	for _, c := range []struct {
		what      string
		b         resultFile
		regressed bool
		line      string
	}{
		{"identical", base(), false, ""},
		{"slower, 5 points past the bound", slower("cycles_per_s", 0.05), true, "cycles_per_s"},
		{"slower, 5 points inside the bound", slower("cycles_per_s", -0.05), false, ""},
		{"faster", with("cycles_per_s", 150, 0), false, ""},
		{"more set-up, past the bound", with("setup_s", 100*(1+bound["setup_s"]+0.05), 0), true, "setup_s"},
		{"simulated result moved", with("sim_latency_cycles", 100.5, 0), true, "sim_latency_cycles"},
		{"failed operation", with("cycles_per_s", 100, 1), true, "ops_failed"},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, spec, base(), c.b); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.what, got, c.regressed, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "regressed") && !strings.Contains(line, c.line) {
				t.Errorf("%s: unexpected verdict line %q", c.what, line)
			}
		}
		if c.what == "failed operation" && !strings.Contains(out.String(), "unresolved") {
			t.Errorf("failed operation: timings of a failed run should be unresolved\n%s", out.String())
		}
	}
}
