// Command bench is the repository's benchmark: four workloads that load
// different layers of the simulator, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one, each run checked for
// correct simulated output. BENCHMARK.json at the repository root names
// the workloads, metrics, units, directions and regression bounds;
// README.md in this directory explains the choices.
//
//	go run ./bench                              every workload, one child process each
//	go run ./bench -trace 1                     the traced runs (per-layer metrics, span files)
//	go run ./bench -workload mesh2048_uniform   one workload, in this process
//	go run ./bench -compare A.json B.json       judge two result files against the bounds
//	go run ./bench -update-expected             re-pin expected.json (benchmark changes only)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchDir is this directory, relative to the repository root the command
// runs from.
const benchDir = "bench"

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what a run of every workload writes: the environment and
// each workload's report.
type resultFile struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Jobs       int               `json:"jobs"`
	Shards     int               `json:"shards"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Commit     string            `json:"commit"`
	Workloads  map[string]report `json:"workloads"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process")
	seed := flag.Uint64("seed", 11, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	update := flag.Bool("update-expected", false, "rewrite bench/expected.json from this build")
	flag.Parse()

	// The libraries read these; a stray setting would change what runs.
	for _, v := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_NOPOOL", "UPP_JOBS", "UPP_FAULTS", "UPP_CACHE_DIR", "UPP_CACHE_WARM"} {
		os.Unsetenv(v)
	}
	if _, err := os.Stat(filepath.Join(benchDir, "expected.json")); err != nil {
		fatal(fmt.Errorf("run from the repository root (go run ./bench): %w", err))
	}
	// A small shared host: one worker or shard per CPU, at most four.
	par := runtime.NumCPU()
	if par > 4 {
		par = 4
	}
	o := runOpts{
		Seed:   *seed,
		Budget: time.Duration(*seconds * float64(time.Second)),
		Traced: *trace != 0,
		Div:    1,
		Setups: 3,
		Par:    par,
		OutDir: filepath.Join(benchDir, "out"),
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *update:
		if err := updateExpected(benchDir, o); err != nil {
			fatal(err)
		}
	case *workload != "":
		for _, w := range workloads() {
			if w.Name == *workload {
				r := w.Run(o)
				printResult(r)
				return
			}
		}
		fatal(fmt.Errorf("unknown workload %q", *workload))
	default:
		if err := runAll(o, *seconds); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// printResult prints every metric by name with its unit, the failures,
// and as the last line the run's report as one JSON object.
func printResult(r *result) {
	fmt.Printf("%s  seed=%d traced=%v  ops_attempted=%d ops_failed=%d\n", r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed)
	for _, d := range metricDefs(r.Traced) {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "FAILED %s\n", f)
	}
	line, err := json.Marshal(report{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// runAll runs every workload in a child process of its own, so heap, RSS
// and GC state do not leak from one to the next, and writes one result
// file.
func runAll(o runOpts, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs: o.Par, Shards: o.Par, Seed: o.Seed, Seconds: seconds, Traced: o.Traced,
		Commit:    "unknown",
		Workloads: map[string]report{},
	}
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		out.Commit = strings.TrimSpace(string(head))
	}
	trace := "0"
	if o.Traced {
		trace = "1"
	}
	failed := 0
	for _, w := range workloads() {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("%s: last line is not a report: %w", w.Name, err)
		}
		out.Workloads[w.Name] = rep
		failed += rep.Failed
	}
	name := "result.json"
	if o.Traced {
		name = "result-trace.json"
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.OutDir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// benchmarkJSON is the part of BENCHMARK.json this program reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []boundedMetric              `json:"end_to_end"`
	PerLayer  []boundedMetric              `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(path string) (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}
