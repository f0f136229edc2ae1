// Command profile runs uniform random traffic on the UPP system (the
// kernel benchmarks' loop) under CPU and heap profiling and writes pprof
// files for `go tool pprof`. Run via `make profile`; inspect allocations
// with
//
//	go tool pprof -sample_index=alloc_objects profiles/mem.pprof
//
// The heap profile is taken with MemProfileRate=1 so every allocation
// in the simulated window is attributed — this is how the remaining
// steady-state allocators were found and eliminated, and how new ones
// show up.
// With -kernel parallel it also prints where a cycle's host time went,
// phase by phase and worker by worker (network.PhaseClock).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// flagSet reports whether the named flag was given explicitly on the
// command line (vs holding its default).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	cpuOut := flag.String("cpu", "profiles/cpu.pprof", "CPU profile output path")
	memOut := flag.String("mem", "profiles/mem.pprof", "heap profile output path")
	rate := flag.Float64("rate", 0.20, "offered load (flits/node/cycle); default is saturation")
	cycles := flag.Int("cycles", 200000, "profiled simulation window in cycles")
	warmup := flag.Int("warmup", 20000, "warmup cycles before profiling starts")
	kernel := flag.String("kernel", network.KernelActive, "cycle kernel: active | naive | parallel")
	shards := flag.Int("shards", 0, "with -kernel parallel: worker count (0 = GOMAXPROCS)")
	scale := flag.String("scale", "", "profile a scale-out preset instead of the baseline: small | large | huge (lowers -rate/-cycles defaults)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		os.Exit(1)
	}

	// Attribute every allocation, not the default 1-in-512KiB sampling:
	// a pool regression of one object per cycle would be invisible at the
	// default rate. Must be set before the profiled allocations happen.
	runtime.MemProfileRate = 1

	spec := experiments.RunSpec{
		Topo:   topology.BaselineConfig(),
		Scheme: experiments.SchemeUPP,
		Kernel: *kernel,
		Shards: *shards,
	}
	if *scale != "" {
		// The scale systems saturate near 0.015 flits/cycle/node
		// (bisection-limited) and simulate orders of magnitude slower per
		// cycle, so the flag defaults would profile a wedged network for
		// hours; substitute scale-appropriate defaults unless overridden.
		if !flagSet("rate") {
			*rate = 0.01
			if *scale == "huge" {
				// 0.01 is past this mesh's saturation (bench/README.md)
				// and would profile a backlog; mesh8192_sharded runs 0.005.
				*rate = 0.005
			}
		}
		if !flagSet("cycles") {
			*cycles = 20000
		}
		if !flagSet("warmup") {
			*warmup = 5000
		}
		for _, sys := range experiments.ScaleSystems() {
			if sys.Label == *scale {
				c := sys.Config
				spec.Scale = &c
			}
		}
		if spec.Scale == nil {
			fail(fmt.Errorf("unknown -scale preset %q (want small, large or huge)", *scale))
		}
	}
	s, err := experiments.Assemble(spec)
	if err != nil {
		fail(err)
	}
	n, g := s.Net, s.Generator(traffic.UniformRandom{}, *rate, 99)
	run := func(cycles int) { experiments.Drive(n, g, n.Cycle()+sim.Cycle(cycles), nil) }
	n.PacketPool().Preallocate(4096)
	run(*warmup)

	for _, p := range []string{*cpuOut, *memOut} {
		if dir := filepath.Dir(p); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(err)
			}
		}
	}
	cpuF, err := os.Create(*cpuOut)
	if err != nil {
		fail(err)
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		fail(err)
	}
	// The clock costs eight time.Now() a cycle: only the run that prints it pays.
	var clock network.PhaseClock
	if *kernel == network.KernelParallel {
		n.SetPhaseClock(&clock)
	}
	run(*cycles)
	pprof.StopCPUProfile()
	if err := cpuF.Close(); err != nil {
		fail(err)
	}

	memF, err := os.Create(*memOut)
	if err != nil {
		fail(err)
	}
	runtime.GC() // flush outstanding profile records before the snapshot
	if err := pprof.WriteHeapProfile(memF); err != nil {
		fail(err)
	}
	if err := memF.Close(); err != nil {
		fail(err)
	}

	st := n.PacketPool().Stats
	sys := "baseline"
	if *scale != "" {
		sys = *scale
	}
	fmt.Fprintf(os.Stderr, "profile: %s/%s: %d cycles at rate %.3f; pool gets=%d reuses=%d live=%d\n",
		sys, *kernel, *cycles, *rate, st.Gets, st.Reuses, st.Live())
	if *kernel == network.KernelParallel {
		printPhases(&clock, *cycles)
	}
	fmt.Fprintf(os.Stderr, "profile: wrote %s and %s\n", *cpuOut, *memOut)
	fmt.Fprintf(os.Stderr, "profile: try `go tool pprof -sample_index=alloc_objects %s`\n", *memOut)
}

// printPhases reports the parallel kernel's phase split in us/cycle: the
// coordinator's wall time per phase, then each worker's time inside its
// share of the two concurrent phases against its wait for the others.
func printPhases(c *network.PhaseClock, cycles int) {
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(cycles) }
	fmt.Fprintf(os.Stderr, "profile: parallel kernel, us/cycle over %d cycles:\n", cycles)
	for ph, name := range [network.NumPhases]string{"pre-pass", "deliver", "StartOfCycle", "compute", "commit", "NI walk + retirement", "EndOfCycle"} {
		fmt.Fprintf(os.Stderr, "profile:   %-22s %8.1f\n", name, us(c.Wall[ph]))
	}
	for w, d := range c.DeliverBusy {
		s := c.StepBusy[w]
		fmt.Fprintf(os.Stderr, "profile:   worker %d: deliver busy %.1f wait %.1f, compute busy %.1f wait %.1f\n",
			w, us(d), us(c.Wall[network.PhaseDeliver]-d), us(s), us(c.Wall[network.PhaseCompute]-s))
	}
}
