// Command figures regenerates every table and figure of the UPP paper's
// evaluation from the simulator.
//
// Usage:
//
//	figures -exp all                 # everything, quick durations
//	figures -exp fig7,fig14 -full    # selected experiments, paper-length runs
//	figures -exp fig8 -scale 0.2     # full-system figures at reduced quota
//	figures -exp fig7 -csv out/      # also write CSV files
//	figures -exp fig7 -jobs 8        # eight parallel simulation workers
//
// Experiments: table1 table2 fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fault_sweep load_balance tail_latency ablation collectives
// router_compare reconfig (fig8/fig12/fig15 run together as
// "fullsystem"), plus "scale" — the scale-out saturation comparison,
// which is opt-in (not in "all") because its systems are 10-100x the
// paper's.
//
// Simulation points fan out across a worker pool (-jobs, or UPP_JOBS,
// defaulting to GOMAXPROCS); the output is bit-identical at any worker
// count. UPP_ROUTER=oq|voq selects the router microarchitecture for the
// experiments that do not sweep it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"uppnoc/internal/experiments"
)

// settings is what the flags hand every experiment.
type settings struct {
	dur   experiments.Durations
	scale float64
	opts  experiments.PoolOptions
}

type tables = []experiments.Table

// registry is every name -exp accepts with whether "all" includes it and
// how to run it: the dispatch, the output order and the usage list.
var registry = []struct {
	name  string
	inAll bool
	run   func(s settings) (tables, error)
}{
	{"table1", true, func(settings) (tables, error) { return tables{experiments.Table1()}, nil }},
	{"table2", true, func(settings) (tables, error) { return tables{experiments.Table2()}, nil }},
	{"fig2", true, func(s settings) (tables, error) { return experiments.Fig2(s.opts) }},
	{"fig7", true, func(s settings) (tables, error) { return experiments.Fig7(s.dur, s.opts) }},
	{"fullsystem", true, func(s settings) (tables, error) { return experiments.FullSystem(s.scale, s.opts) }},
	{"fig9", true, func(s settings) (tables, error) { return experiments.Fig9(s.dur, s.opts) }},
	{"fig10", true, func(s settings) (tables, error) { return experiments.Fig10(s.dur, s.opts) }},
	{"fig11", true, func(s settings) (tables, error) { return experiments.Fig11(s.dur, s.opts) }},
	{"fig13", true, func(s settings) (tables, error) { return experiments.Fig13(s.dur, s.opts) }},
	{"fault_sweep", true, func(s settings) (tables, error) { return experiments.FaultSweep(s.dur, s.opts) }},
	{"fig14", true, func(settings) (tables, error) { return tables{experiments.Fig14()}, nil }},
	{"load_balance", true, func(s settings) (tables, error) { return experiments.LoadBalance(s.dur, s.opts) }},
	{"tail_latency", true, func(s settings) (tables, error) { return experiments.TailLatency(s.dur, s.opts) }},
	{"collectives", true, func(s settings) (tables, error) { return experiments.Collectives(s.opts) }},
	{"router_compare", true, func(s settings) (tables, error) { return experiments.RouterCompare(s.opts) }},
	{"reconfig", true, func(s settings) (tables, error) { return experiments.Reconfig(s.dur, s.opts) }},
	// Not part of -exp all: the scale systems are orders of magnitude
	// larger than the paper's, so the sweep is opt-in.
	{"scale", false, func(s settings) (tables, error) { return experiments.Scale(s.dur, s.opts) }},
	{"ablation", true, func(s settings) (all tables, err error) {
		for _, run := range []func(experiments.Durations, experiments.PoolOptions) (tables, error){
			experiments.AblationBinding, experiments.AblationAdaptive, experiments.AblationBufferDepth, experiments.AblationSignalGap,
		} {
			ts, err := run(s.dur, s.opts)
			if err != nil {
				return nil, err
			}
			all = append(all, ts...)
		}
		return all, nil
	}},
}

// fullSystemFigures come out of one set of simulations: each name selects
// the "fullsystem" entry.
var fullSystemFigures = []string{"fig8", "fig12", "fig15"}

// known lists every name -exp accepts.
func known() []string {
	names := []string{"all"}
	for _, e := range registry {
		names = append(names, e.name)
	}
	return append(names, fullSystemFigures...)
}

// selectExperiments resolves an -exp list to registry indices, each at
// most once and in registry order. A name it does not know is an error —
// a typo must not silently shrink a paper-length run.
func selectExperiments(list string) ([]int, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); slices.Contains(fullSystemFigures, name) {
			name = "fullsystem"
		}
		if name != "" {
			want[name] = true
		}
	}
	all := want["all"]
	delete(want, "all")
	var picked []int
	for i, e := range registry {
		if want[e.name] || all && e.inAll {
			picked = append(picked, i)
		}
		delete(want, e.name)
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		slices.Sort(unknown)
		return nil, fmt.Errorf("unknown experiment %s (known: %s)", strings.Join(unknown, ", "), strings.Join(known(), " "))
	}
	return picked, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 1 when an experiment fails, 2 on a
// usage error (a flag, an unknown experiment, nothing selected).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "comma-separated experiment list: "+strings.Join(known(), " "))
		full  = fs.Bool("full", false, "use the paper's 10k+100k cycle durations (slow)")
		scale = fs.Float64("scale", 0.25, "full-system benchmark access-quota scale (1.0 = calibrated profile)")
		csv   = fs.String("csv", "", "directory to also write CSV files into")
		quiet = fs.Bool("q", false, "suppress progress output")
		jobs  = fs.Int("jobs", 0, "parallel simulation workers (0 = UPP_JOBS env or GOMAXPROCS); results are bit-identical at any value")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	picked, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 2
	}
	if len(picked) == 0 {
		fmt.Fprintln(stderr, "figures: nothing selected (see -h)")
		return 2
	}

	s := settings{dur: experiments.QuickDurations(), scale: *scale, opts: experiments.PoolOptions{Jobs: *jobs}}
	if *full {
		s.dur = experiments.PaperDurations()
	}
	if !*quiet {
		s.opts.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	var out tables
	for _, i := range picked {
		ts, err := registry[i].run(s)
		if err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
		out = append(out, ts...)
	}

	for i := range out {
		fmt.Fprintln(stdout, out[i].Render())
		if *csv != "" {
			if err := os.MkdirAll(*csv, 0o755); err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
				return 1
			}
			path := filepath.Join(*csv, out[i].ID+".csv")
			if err := os.WriteFile(path, []byte(out[i].CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
				return 1
			}
		}
	}
	if experiments.CacheDir() != "" {
		// Machine-greppable cache summary (CI's cache-smoke job asserts a
		// re-run reports misses=0).
		hits, misses, warmHits, warmMisses := experiments.CacheCounters()
		fmt.Fprintf(stderr, "figures: result cache hits=%d misses=%d warm_hits=%d warm_misses=%d\n",
			hits, misses, warmHits, warmMisses)
	}
	return 0
}
