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
// It also prints where a cycle's host time went, phase by phase under every
// kernel and worker by worker under the parallel one (network.PhaseClock),
// and the whole cycle's wall time with the traffic source's. An empty -cpu
// skips the CPU profiler, whose SIGPROF interrupts perturb the parallel
// kernel's spinning hand-off; an empty -mem skips the heap profile.
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
	cpuOut := flag.String("cpu", "profiles/cpu.pprof", "CPU profile output path (empty: no CPU profile)")
	memOut := flag.String("mem", "profiles/mem.pprof", "heap profile output path (empty: no heap profile)")
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
		if dir := filepath.Dir(p); p != "" && dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(err)
			}
		}
	}
	var cpuF *os.File
	if *cpuOut != "" {
		if cpuF, err = os.Create(*cpuOut); err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			fail(err)
		}
	}
	var clock network.PhaseClock
	n.SetPhaseClock(&clock)
	start := time.Now()
	run(*cycles)
	wall := time.Since(start)
	if cpuF != nil {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			fail(err)
		}
	}

	if *memOut != "" {
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
	}

	st := n.PacketPool().Stats
	sys := "baseline"
	if *scale != "" {
		sys = *scale
	}
	fmt.Fprintf(os.Stderr, "profile: %s/%s: %d cycles at rate %.3f; pool gets=%d reuses=%d live=%d\n",
		sys, *kernel, *cycles, *rate, st.Gets, st.Reuses, st.Live())
	printPhases(&clock, n.Kernel(), wall, *cycles)
	for _, p := range []string{*cpuOut, *memOut} {
		if p != "" {
			fmt.Fprintf(os.Stderr, "profile: wrote %s\n", p)
		}
	}
	if *memOut != "" {
		fmt.Fprintf(os.Stderr, "profile: try `go tool pprof -sample_index=alloc_objects %s`\n", *memOut)
	}
}

// printPhases reports the kernel's phase split in us/cycle: the
// coordinator's wall time per phase, the rest of the cycle (the traffic
// source and the driver loop) and the whole; then, under the parallel
// kernel, each worker's time inside its share of the concurrent phases
// against the phase's wall time.
func printPhases(c *network.PhaseClock, kernel string, wall time.Duration, cycles int) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(cycles) }
	fmt.Fprintf(os.Stderr, "profile: %s kernel, us/cycle over %d cycles:\n", kernel, cycles)
	var step time.Duration
	for ph, name := range [network.NumPhases]string{"deliver", "StartOfCycle", "compute", "commit", "NI walk + retirement", "EndOfCycle"} {
		fmt.Fprintf(os.Stderr, "profile:   %-22s %8.1f\n", name, us(c.Wall[ph]))
		step += c.Wall[ph]
	}
	fmt.Fprintf(os.Stderr, "profile:   %-22s %8.1f\n", "traffic + driver", us(wall-step))
	fmt.Fprintf(os.Stderr, "profile:   %-22s %8.1f\n", "wall", us(wall))
	for w := range c.Busy[network.PhaseDeliver] {
		fmt.Fprintf(os.Stderr, "profile:   worker %d busy:", w)
		for _, ph := range []struct {
			name  string
			phase int
		}{{"deliver", network.PhaseDeliver}, {"compute", network.PhaseCompute}, {"retirement", network.PhaseNIRetire}, {"EndOfCycle", network.PhaseEndOfCycle}} {
			fmt.Fprintf(os.Stderr, " %s %.1f of %.1f", ph.name, us(c.Busy[ph.phase][w]), us(c.Wall[ph.phase]))
		}
		fmt.Fprintln(os.Stderr)
	}
}
