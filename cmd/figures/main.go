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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"uppnoc/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment list, or 'all'")
		full  = flag.Bool("full", false, "use the paper's 10k+100k cycle durations (slow)")
		scale = flag.Float64("scale", 0.25, "full-system benchmark access-quota scale (1.0 = calibrated profile)")
		csv   = flag.String("csv", "", "directory to also write CSV files into")
		quiet = flag.Bool("q", false, "suppress progress output")
		jobs  = flag.Int("jobs", 0, "parallel simulation workers (0 = UPP_JOBS env or GOMAXPROCS); results are bit-identical at any value")
	)
	flag.Parse()

	dur := experiments.QuickDurations()
	if *full {
		dur = experiments.PaperDurations()
	}
	var progress experiments.Progress
	if !*quiet {
		progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	opts := experiments.PoolOptions{Jobs: *jobs, Progress: progress}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	fullSystemWanted := all || want["fig8"] || want["fig12"] || want["fig15"] || want["fullsystem"]

	var tables []experiments.Table
	add := func(ts []experiments.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		tables = append(tables, ts...)
	}

	if all || want["table1"] {
		tables = append(tables, experiments.Table1())
	}
	if all || want["table2"] {
		tables = append(tables, experiments.Table2())
	}
	if all || want["fig2"] {
		add(experiments.Fig2(opts))
	}
	if all || want["fig7"] {
		add(experiments.Fig7(dur, opts))
	}
	if fullSystemWanted {
		add(experiments.FullSystem(*scale, opts))
	}
	if all || want["fig9"] {
		add(experiments.Fig9(dur, opts))
	}
	if all || want["fig10"] {
		add(experiments.Fig10(dur, opts))
	}
	if all || want["fig11"] {
		add(experiments.Fig11(dur, opts))
	}
	if all || want["fig13"] {
		add(experiments.Fig13(dur, opts))
	}
	if all || want["fault_sweep"] {
		add(experiments.FaultSweep(dur, opts))
	}
	if all || want["fig14"] {
		tables = append(tables, experiments.Fig14())
	}
	if all || want["load_balance"] {
		add(experiments.LoadBalance(dur, opts))
	}
	if all || want["tail_latency"] {
		add(experiments.TailLatency(dur, opts))
	}
	if all || want["collectives"] {
		add(experiments.Collectives(opts))
	}
	if all || want["router_compare"] {
		add(experiments.RouterCompare(opts))
	}
	if all || want["reconfig"] {
		add(experiments.Reconfig(dur, opts))
	}
	if want["scale"] {
		// Not part of -exp all: the scale systems are orders of magnitude
		// larger than the paper's, so the sweep is opt-in.
		add(experiments.Scale(dur, opts))
	}
	if all || want["ablation"] {
		add(experiments.AblationBinding(dur, opts))
		add(experiments.AblationAdaptive(dur, opts))
		add(experiments.AblationBufferDepth(dur, opts))
		add(experiments.AblationSignalGap(dur, opts))
	}

	if len(tables) == 0 {
		fmt.Fprintln(os.Stderr, "figures: nothing selected (see -h)")
		os.Exit(2)
	}
	for i := range tables {
		fmt.Println(tables[i].Render())
		if *csv != "" {
			if err := os.MkdirAll(*csv, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csv, tables[i].ID+".csv")
			if err := os.WriteFile(path, []byte(tables[i].CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if experiments.CacheDir() != "" {
		// Machine-greppable cache summary (CI's cache-smoke job asserts a
		// re-run reports misses=0).
		hits, misses, warmHits, warmMisses := experiments.CacheCounters()
		fmt.Fprintf(os.Stderr, "figures: result cache hits=%d misses=%d warm_hits=%d warm_misses=%d\n",
			hits, misses, warmHits, warmMisses)
	}
}
