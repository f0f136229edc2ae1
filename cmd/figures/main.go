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
// Simulation points fan out across a worker pool (-jobs, defaulting to
// GOMAXPROCS); the output is bit-identical at any worker count, and under
// any -kernel and -shards. -router oq|voq selects the router
// microarchitecture for the experiments that do not sweep it.
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
	"uppnoc/internal/network"
	"uppnoc/internal/router"
)

// entries is every experiment -exp names, in output order: the selection
// and the usage list.
var entries = experiments.Experiments()

// fullSystemFigures come out of one set of simulations: each name selects
// the "fullsystem" entry.
var fullSystemFigures = []string{"fig8", "fig12", "fig15"}

// known lists every name -exp accepts.
func known() []string {
	names := []string{"all"}
	for _, e := range entries {
		names = append(names, e.ID)
	}
	return append(names, fullSystemFigures...)
}

// selectExperiments resolves an -exp list to entries, each at most once
// and in their order. A name it does not know is an error — a typo must
// not silently shrink a paper-length run.
func selectExperiments(list string) ([]experiments.Experiment, error) {
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
	var picked []experiments.Experiment
	for _, e := range entries {
		if want[e.ID] || all && e.InAll {
			picked = append(picked, e)
		}
		delete(want, e.ID)
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
		exp        = fs.String("exp", "all", "comma-separated experiment list: "+strings.Join(known(), " "))
		full       = fs.Bool("full", false, "use the paper's 10k+100k cycle durations (slow)")
		scale      = fs.Float64("scale", 0.25, "full-system benchmark access-quota scale (1.0 = calibrated profile)")
		csv        = fs.String("csv", "", "directory to also write CSV files into")
		quiet      = fs.Bool("q", false, "suppress progress output")
		jobs       = fs.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS); results are bit-identical at any value")
		kernel     = fs.String("kernel", network.KernelActive, "cycle kernel: active | naive | parallel")
		shards     = fs.Int("shards", 0, "with -kernel parallel: worker count (0 = GOMAXPROCS)")
		routerArch = fs.String("router", router.ArchIQ, "router microarchitecture of the experiments that do not sweep it: iq | oq | voq")
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
	// Checked up front: an experiment that builds no network would not.
	exec := network.DefaultConfig()
	exec.Kernel, exec.Shards, exec.RouterArch = *kernel, *shards, *routerArch
	if err := exec.Validate(); err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "figures: -jobs is %d; want >= 0 (0 = GOMAXPROCS)\n", *jobs)
		return 2
	}

	opts := experiments.PoolOptions{Jobs: *jobs, Kernel: *kernel, Shards: *shards, RouterArch: *routerArch}
	s := experiments.Settings{Dur: experiments.QuickDurations(), Scale: *scale, Opts: opts}
	if *full {
		s.Dur = experiments.PaperDurations()
	}
	if !*quiet {
		s.Opts.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	out, err := experiments.Tables(picked, s)
	if err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 1
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
		// re-run reports misses=0). cancelled counts the runs past a
		// curve's stop the pool discarded, which count in no other field.
		hits, misses, warmHits, warmMisses := experiments.CacheCounters()
		fmt.Fprintf(stderr, "figures: result cache hits=%d misses=%d warm_hits=%d warm_misses=%d cancelled=%d\n",
			hits, misses, warmHits, warmMisses, experiments.CancelledRuns())
	}
	return 0
}
