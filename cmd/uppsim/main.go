// Command uppsim runs a single chiplet-NoC simulation and prints its
// statistics — the quick way to poke at one configuration.
//
// Examples:
//
//	uppsim -scheme upp -rate 0.05 -pattern uniform_random
//	uppsim -scheme composable -vcs 4 -pattern transpose -cycles 50000
//	uppsim -scheme upp -faults 10 -rate 0.03
//	uppsim -scheme upp -fault-plan "flaps=4,drop=0.2" -rate 0.05
//	uppsim -scheme upp -fault-plan "kill=3@5000,kill=9@5000" -rate 0.03
//
// Persistent events in a fault plan (kill/add/killchiplet, see
// EXPERIMENTS.md) bring in the reconfiguration engine (internal/reconfig)
// on top of the plain injector and force up*/down* routing so the tables
// can be rebuilt mid-run (DESIGN.md §15).
//
//	uppsim -scheme none -rate 0.10       # watch a deadlock wedge the network
//	uppsim -scale large -rate 0.01       # 2048-router scale-out preset
//	UPP_KERNEL=parallel UPP_SHARDS=4 uppsim -scale huge -rate 0.005 -cycles 2000
//
// Closed-loop collective workloads (see EXPERIMENTS.md for the spec
// syntax) replace the rate-driven generator; a run can be recorded to a
// binary trace and replayed open-loop. The machine flags (-scheme, -vcs,
// -router, -faults, -fault-plan, -adaptive, -vct, -large, -boundaries,
// -scale, -trace) describe the system whatever the source; a flag that
// only configures another source is refused, not ignored:
//
//	uppsim -scheme upp -workload ring_allreduce
//	uppsim -scheme upp -workload "training_step:gap=500,iters=4"
//	uppsim -scheme upp -workload all_to_all -record a2a.trace
//	uppsim -scheme upp -replay a2a.trace
//
// A rate-driven run can be checkpointed mid-flight and resumed
// bit-identically; the checkpoint embeds its spec, so -restore needs no
// other flags (DESIGN.md §14):
//
//	uppsim -scheme upp -rate 0.05 -snapshot run.upwr -at 5000
//	uppsim -restore run.upwr
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uppnoc/internal/experiments"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Getenv, os.Stdout, os.Stderr))
}

// run is main with its process state passed in: the exit status is the
// return value (0 ok, 1 failed run, 2 bad flags). getenv supplies the
// -fault-plan default; the host variables (UPP_KERNEL, UPP_SHARDS,
// UPP_ROUTER, UPP_NOPOOL) are not read here but by internal/experiments,
// from the process environment, when it builds each network.
func run(args []string, getenv func(string) string, stdout, stderr io.Writer) int {
	status := func(err error) int {
		if err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "uppsim: %v\n", err)
		return 1
	}
	fs := flag.NewFlagSet("uppsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeName = fs.String("scheme", "upp", "upp | composable | remote_control | none")
		patName    = fs.String("pattern", "uniform_random", "uniform_random | bit_complement | bit_rotation | transpose")
		rate       = fs.Float64("rate", 0.03, "offered load, flits/cycle/node")
		vcs        = fs.Int("vcs", 1, "VCs per virtual network (1 or 4)")
		warmup     = fs.Int("warmup", 10000, "warmup cycles")
		cycles     = fs.Int("cycles", 100000, "measured cycles")
		faults     = fs.Int("faults", 0, "faulty links (forces up*/down* routing)")
		faultPlan  = fs.String("fault-plan", getenv("UPP_FAULTS"), "runtime fault-injection spec, e.g. \"flaps=4,drop=0.2\" (default $UPP_FAULTS; see EXPERIMENTS.md)")
		large      = fs.Bool("large", false, "use the 128-core system (fig. 9)")
		boundaries = fs.Int("boundaries", 4, "boundary routers per chiplet")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		trace      = fs.Int("trace", 0, "print the first N simulator events (0 = off)")
		adaptive   = fs.Bool("adaptive", false, "minimal-adaptive odd-even local routing")
		vct        = fs.Bool("vct", false, "virtual cut-through flow control")
		asJSON     = fs.Bool("json", false, "emit the result as JSON")
		wl         = fs.String("workload", "", "closed-loop collective workload spec, e.g. \"ring_allreduce\" or \"training_step:gap=500,iters=4\" (excludes -pattern/-rate/-warmup/-cycles)")
		maxCycles  = fs.Int("max-cycles", 400000, "workload completion horizon")
		record     = fs.String("record", "", "with -workload: write the run's binary message trace to this file")
		replay     = fs.String("replay", "", "replay a recorded trace open-loop instead of running a workload")
		routerArch = fs.String("router", "", "router microarchitecture: iq | oq | voq (default $UPP_ROUTER, then iq)")
		scale      = fs.String("scale", "", "scale-out preset: small (512 routers) | large (2048) | huge (8192); excludes -large/-boundaries")
		snapshot   = fs.String("snapshot", "", "write a checkpoint of the run's state to this file when it reaches -at, then continue")
		snapAt     = fs.Int64("at", 0, "with -snapshot: absolute cycle to checkpoint at (warmup starts the timeline at 0)")
		restore    = fs.String("restore", "", "resume a checkpoint written by -snapshot and run it to its schedule's end")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the problem and the usage
	}

	// Each source has flags only it reads; given to another source they
	// would do nothing, so they are refused.
	source := "rate"
	switch {
	case *replay != "":
		source = "replay"
	case *wl != "":
		source = "workload"
	}
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		switch of, ok := sourceFlags[f.Name]; {
		case misplaced != nil:
		case *restore != "" && f.Name != "restore" && f.Name != "json":
			misplaced = fmt.Errorf("-restore resumes the run its checkpoint describes; -%s does not apply", f.Name)
		case *scale != "" && (f.Name == "large" || f.Name == "boundaries"):
			misplaced = fmt.Errorf("-scale picks the whole system; -%s does not apply", f.Name)
		case ok && !strings.Contains(of, source):
			misplaced = fmt.Errorf("-%s configures a %s run and does not apply to this %s run", f.Name, strings.ReplaceAll(of, " ", " or "), source)
		}
	})
	if misplaced != nil {
		return status(misplaced)
	}
	if *restore != "" {
		data, err := os.ReadFile(*restore)
		if err != nil {
			return status(err)
		}
		pt, spec, err := experiments.RunRestored(data)
		if err != nil {
			return status(err)
		}
		return status(printPoint(stdout, string(spec.Scheme), spec.Pattern.Name(), pt, *asJSON))
	}

	// The machine, from the flags, before the source is chosen: every
	// source runs on the same RunSpec.
	spec := experiments.RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     experiments.SchemeName(*schemeName),
		VCsPerVNet: *vcs,
		Seed:       *seed,
		Faults:     *faults,
		FaultSeed:  *seed * 31,
		FaultPlan:  *faultPlan,
		RouterArch: *routerArch,
		TraceLimit: *trace,
		Adaptive:   *adaptive,
		VCT:        *vct,
	}
	if *large {
		spec.Topo = topology.LargeConfig()
	}
	spec.Topo.BoundaryPerChiplet = *boundaries
	if *scale != "" {
		for _, sys := range experiments.ScaleSystems() {
			if sys.Label == *scale {
				sc := sys.Config
				spec.Scale = &sc
			}
		}
		if spec.Scale == nil {
			return status(fmt.Errorf("unknown -scale preset %q (want small, large or huge)", *scale))
		}
	}

	switch source {
	case "replay":
		return status(runReplay(stdout, spec, *maxCycles, *replay))
	case "workload":
		spec.Workload = *wl
		return status(runWorkload(stdout, stderr, spec, *maxCycles, *record, *asJSON))
	}

	pat, err := traffic.PatternByName(*patName)
	if err != nil {
		return status(err)
	}
	spec.Pattern, spec.Rate = pat, *rate
	spec.Dur = experiments.Durations{Warmup: *warmup, Measure: *cycles}
	var pt experiments.Point
	if *snapshot != "" {
		f, cerr := os.Create(*snapshot)
		if cerr != nil {
			return status(cerr)
		}
		pt, err = experiments.RunCheckpointed(spec, *snapAt, f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(stderr, "uppsim: checkpoint at cycle %d written to %s\n", *snapAt, *snapshot)
		}
	} else {
		pt, err = experiments.Run(spec)
	}
	if err != nil {
		return status(err)
	}
	return status(printPoint(stdout, *schemeName, *patName, pt, *asJSON))
}

// sourceFlags maps each flag that configures one kind of traffic source
// to the sources (rate, workload, replay) that read it. Flags not listed
// describe the machine and reach every source.
var sourceFlags = map[string]string{
	"pattern":    "rate",
	"rate":       "rate",
	"warmup":     "rate",
	"cycles":     "rate",
	"snapshot":   "rate",
	"at":         "rate",
	"restore":    "rate",
	"workload":   "workload",
	"replay":     "replay",
	"max-cycles": "workload replay",
	"record":     "workload",
	"json":       "rate workload",
}

// printPoint renders a rate-driven run's outcome, as JSON or the aligned
// text block.
func printPoint(stdout io.Writer, schemeName, patName string, pt experiments.Point, asJSON bool) error {
	if asJSON {
		out, err := json.MarshalIndent(struct {
			Scheme  string
			Pattern string
			experiments.Point
		}{schemeName, patName, pt}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}
	fmt.Fprintf(stdout, "scheme            %s\n", schemeName)
	fmt.Fprintf(stdout, "pattern           %s\n", patName)
	fmt.Fprintf(stdout, "offered load      %.4f flits/cycle/node\n", pt.Rate)
	fmt.Fprintf(stdout, "accepted load     %.4f flits/cycle/node\n", pt.Throughput)
	fmt.Fprintf(stdout, "avg latency       %.2f cycles (network %.2f + queueing %.2f)\n", pt.TotalLat, pt.NetLat, pt.QueueLat)
	fmt.Fprintf(stdout, "p50/p99/max       %d / %d / %d cycles\n", pt.LatP50, pt.LatP99, pt.LatMax)
	fmt.Fprintf(stdout, "packets measured  %d\n", pt.Packets)
	fmt.Fprintf(stdout, "saturated         %v\n", pt.Saturated)
	if schemeName == "upp" {
		fmt.Fprintf(stdout, "upward packets    %d\n", pt.Upward)
		fmt.Fprintf(stdout, "popups completed  %d\n", pt.Popups)
		fmt.Fprintf(stdout, "signal hops       %d\n", pt.Signals)
	}
	return nil
}

// runWorkload drives a closed-loop collective to completion (or the
// horizon) and prints completion time plus scheme counters.
func runWorkload(stdout, stderr io.Writer, spec experiments.RunSpec, maxCycles int, record string, asJSON bool) error {
	pt, err := experiments.RunWorkload(experiments.WorkloadSpec{RunSpec: spec, MaxCycles: maxCycles, Record: record != ""})
	if err != nil {
		return err
	}
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		if err := workload.WriteTrace(f, pt.Trace); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "uppsim: recorded %d messages to %s\n", len(pt.Trace.Records), record)
	}
	if asJSON {
		out, err := json.MarshalIndent(pt, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}
	schemeName := string(spec.Scheme)
	fmt.Fprintf(stdout, "scheme            %s\n", schemeName)
	fmt.Fprintf(stdout, "workload          %s\n", spec.Workload)
	fmt.Fprintf(stdout, "completed         %v (%d/%d ops)\n", pt.Completed, pt.OpsFired, pt.OpsTotal)
	if pt.Completed {
		fmt.Fprintf(stdout, "finish cycle      %d\n", pt.FinishCycle)
	}
	fmt.Fprintf(stdout, "messages          %d\n", pt.Messages)
	fmt.Fprintf(stdout, "avg latency       %.2f cycles (network %.2f + queueing %.2f)\n", pt.TotalLat, pt.NetLat, pt.QueueLat)
	if schemeName == "upp" {
		fmt.Fprintf(stdout, "upward packets    %d\n", pt.Upward)
		fmt.Fprintf(stdout, "popups completed  %d\n", pt.Popups)
		fmt.Fprintf(stdout, "signal hops       %d\n", pt.Signals)
	}
	if schemeName == "remote_control" {
		fmt.Fprintf(stdout, "injection holds   %d\n", pt.InjectionHolds)
	}
	return nil
}

// runReplay re-injects a recorded trace open-loop until every record is
// in flight or delivered, then drains and prints the final statistics.
func runReplay(stdout io.Writer, spec experiments.RunSpec, maxCycles int, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	trace, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	sm, err := experiments.Assemble(spec)
	if err != nil {
		return err
	}
	n := sm.Net
	rp, err := workload.NewReplayer(n, trace)
	if err != nil {
		return err
	}
	experiments.Drive(n, rp, sim.Cycle(maxCycles), rp.Done)
	if !rp.Done() {
		return fmt.Errorf("replay of %s still injecting after %d cycles", path, maxCycles)
	}
	if err := n.Drain(maxCycles, 5000); err != nil {
		return fmt.Errorf("replay drain: %w", err)
	}
	schemeName := string(spec.Scheme)
	fmt.Fprintf(stdout, "scheme            %s\n", schemeName)
	fmt.Fprintf(stdout, "trace             %s (%d ranks, %d records)\n", path, trace.Ranks, len(trace.Records))
	fmt.Fprintf(stdout, "final cycle       %d\n", n.Cycle())
	fmt.Fprintf(stdout, "packets born      %d\n", n.Stats.BornPackets)
	fmt.Fprintf(stdout, "packets consumed  %d\n", n.Stats.ConsumedPackets)
	fmt.Fprintf(stdout, "avg latency       %.2f cycles (network %.2f + queueing %.2f)\n",
		n.AvgTotalLatency(), n.AvgNetLatency(), n.AvgQueueLatency())
	if schemeName == "upp" {
		fmt.Fprintf(stdout, "upward packets    %d\n", n.Stats.UpwardPackets)
		fmt.Fprintf(stdout, "popups completed  %d\n", n.Stats.PopupsCompleted)
		fmt.Fprintf(stdout, "signal hops       %d\n", n.Stats.SignalsSent)
	}
	return nil
}
