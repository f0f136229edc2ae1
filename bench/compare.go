package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareFiles judges result file b against result file a (the base),
// workload by workload and metric by metric, with the directions and
// bounds of BENCHMARK.json, and reports whether anything regressed.
//
// A host-time or memory metric has regressed when b is worse than a by
// more than the bound, as a share of a. Simulated metrics (sim_*) and
// ops_failed repeat exactly for a fixed seed, so they compare by
// equality. A pairing is unresolved when it cannot be judged: the metric
// is missing on one side, a side had failed operations (its timings are
// not those of a complete run), or the seeds differ for an exact metric.
func compareFiles(w io.Writer, aPath, bPath string) (regressed bool, err error) {
	spec, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	return compareResults(w, spec, a, b), nil
}

func compareResults(w io.Writer, spec benchmarkJSON, a, b resultFile) (regressed bool) {
	fmt.Fprintf(w, "base %s (num_cpu %d, seed %d)  vs  %s (num_cpu %d, seed %d)\n", a.Commit, a.NumCPU, a.Seed, b.Commit, b.NumCPU, b.Seed)
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	row := func(workload, name string, av, bv float64, bound, verdict string) {
		fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %8.4f %7s  %s\n", workload, name, av, bv, ratio(bv, av), bound, verdict)
		regressed = regressed || verdict == "regressed"
	}
	for _, name := range sortedKeys(a.Workloads) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		verdict := "ok"
		switch {
		case rb.Metrics == nil:
			verdict = "unresolved"
		case ra.Failed != rb.Failed:
			verdict = "regressed"
		}
		row(name, "ops_failed", float64(ra.Failed), float64(rb.Failed), "exact", verdict)
		for _, m := range spec.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			exact := strings.HasPrefix(m.Name, "sim_")
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if exact {
				bound = "exact"
			}
			worse := ratio(mb.Value-ma.Value, ma.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			switch {
			case !okA || !okB || ra.Failed > 0 || rb.Failed > 0 || (exact && a.Seed != b.Seed):
				verdict = "unresolved"
			case exact && ma.Value != mb.Value, !exact && worse > m.Bound:
				verdict = "regressed"
			default:
				verdict = "ok"
			}
			row(name, m.Name, ma.Value, mb.Value, bound, verdict)
		}
	}
	return regressed
}

func sortedKeys(m map[string]report) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
