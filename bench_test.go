// Package-level benchmarks: one per table/figure of the paper's
// evaluation. Each benchmark runs a scaled-down version of the
// corresponding experiment (the cmd/figures binary runs the full-length
// ones) and reports the domain metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature.
package main

import (
	"runtime"
	"testing"

	"uppnoc/internal/coherence"
	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/power"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// benchDur keeps benchmark iterations short while preserving curve shape.
var benchDur = experiments.Durations{Warmup: 1500, Measure: 6000}

// runPoint executes one simulation point per benchmark iteration and
// reports latency/throughput metrics.
func runPoint(b *testing.B, spec experiments.RunSpec) {
	b.Helper()
	var last experiments.Point
	for i := 0; i < b.N; i++ {
		pt, err := experiments.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(last.TotalLat, "cycles/pkt")
	b.ReportMetric(last.Throughput, "flits/cycle/node")
}

// BenchmarkTable1Qualitative renders the qualitative comparison table.
func BenchmarkTable1Qualitative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if len(t.Rows) != 8 {
			b.Fatal("table1 rows")
		}
	}
}

// BenchmarkTable2Config renders the simulation-configuration table.
func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		if len(t.Rows) == 0 {
			b.Fatal("table2 rows")
		}
	}
}

// benchScheme builds the Fig. 7-style point benchmark for one scheme,
// pattern and VC count at a sub-saturation rate.
func benchScheme(b *testing.B, sch experiments.SchemeName, pattern traffic.Pattern, vcs int, rate float64) {
	b.Helper()
	runPoint(b, experiments.RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     sch,
		VCsPerVNet: vcs,
		Pattern:    pattern,
		Rate:       rate,
		Seed:       3,
		Dur:        benchDur,
	})
}

// Fig. 7: latency under the four synthetic patterns for the three schemes.
func BenchmarkFig7UniformRandomComposable(b *testing.B) {
	benchScheme(b, experiments.SchemeComposable, traffic.UniformRandom{}, 1, 0.03)
}
func BenchmarkFig7UniformRandomRemoteControl(b *testing.B) {
	benchScheme(b, experiments.SchemeRemoteControl, traffic.UniformRandom{}, 1, 0.03)
}
func BenchmarkFig7UniformRandomUPP(b *testing.B) {
	benchScheme(b, experiments.SchemeUPP, traffic.UniformRandom{}, 1, 0.03)
}
func BenchmarkFig7BitComplementUPP(b *testing.B) {
	benchScheme(b, experiments.SchemeUPP, traffic.BitComplement{}, 1, 0.02)
}
func BenchmarkFig7BitRotationUPP(b *testing.B) {
	benchScheme(b, experiments.SchemeUPP, traffic.BitRotation{}, 1, 0.03)
}
func BenchmarkFig7TransposeUPP(b *testing.B) {
	benchScheme(b, experiments.SchemeUPP, traffic.Transpose{}, 1, 0.02)
}
func BenchmarkFig7UniformRandom4VCUPP(b *testing.B) {
	benchScheme(b, experiments.SchemeUPP, traffic.UniformRandom{}, 4, 0.05)
}

// fullSystemSpec is one full-system run (Figs. 8, 12, 15) of a benchmark
// profile at 5% of its access quota; the figures binary runs all 18 at
// 25%.
func fullSystemSpec(name string, sch experiments.SchemeName) experiments.RunSpec {
	return experiments.RunSpec{
		Topo: topology.BaselineConfig(), Scheme: sch, VCsPerVNet: 1, Seed: 8,
		Workload: coherence.Spec(name, 0.05),
	}
}

// runFullSystem runs spec once per benchmark iteration and returns the
// last point, which must have finished.
func runFullSystem(b *testing.B, spec experiments.RunSpec) experiments.Point {
	b.Helper()
	var last experiments.Point
	for i := 0; i < b.N; i++ {
		pt, err := experiments.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !pt.Completed {
			b.Fatalf("%s did not finish", spec.Workload)
		}
		last = pt
	}
	return last
}

// Fig. 8: full-system runtime, one representative network-bound benchmark
// per scheme (the figures binary runs all 18).
func benchFullSystem(b *testing.B, name string, sch experiments.SchemeName) {
	b.Helper()
	b.ReportMetric(float64(runFullSystem(b, fullSystemSpec(name, sch)).FinishCycle), "cycles/run")
}

func BenchmarkFig8CannealComposable(b *testing.B) {
	benchFullSystem(b, "canneal", experiments.SchemeComposable)
}
func BenchmarkFig8CannealRemoteControl(b *testing.B) {
	benchFullSystem(b, "canneal", experiments.SchemeRemoteControl)
}
func BenchmarkFig8CannealUPP(b *testing.B) {
	benchFullSystem(b, "canneal", experiments.SchemeUPP)
}
func BenchmarkFig8BlackscholesUPP(b *testing.B) {
	benchFullSystem(b, "blackscholes", experiments.SchemeUPP)
}

// Fig. 9: the 128-core system.
func BenchmarkFig9LargeSystemUPP(b *testing.B) {
	runPoint(b, experiments.RunSpec{
		Topo:       topology.LargeConfig(),
		Scheme:     experiments.SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.03,
		Seed:       3,
		Dur:        benchDur,
	})
}
func BenchmarkFig9LargeSystemComposable(b *testing.B) {
	runPoint(b, experiments.RunSpec{
		Topo:       topology.LargeConfig(),
		Scheme:     experiments.SchemeComposable,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.03,
		Seed:       3,
		Dur:        benchDur,
	})
}

// Fig. 10: boundary-router sensitivity (2 and 8 boundary routers).
func BenchmarkFig10TwoBoundariesUPP(b *testing.B) {
	cfg := topology.BaselineConfig()
	cfg.BoundaryPerChiplet = 2
	runPoint(b, experiments.RunSpec{
		Topo: cfg, Scheme: experiments.SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Rate: 0.02, Seed: 3, Dur: benchDur,
	})
}
func BenchmarkFig10EightBoundariesUPP(b *testing.B) {
	cfg := topology.BaselineConfig()
	cfg.BoundaryPerChiplet = 8
	runPoint(b, experiments.RunSpec{
		Topo: cfg, Scheme: experiments.SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Rate: 0.04, Seed: 3, Dur: benchDur,
	})
}

// Fig. 11: faulty systems under up*/down* routing.
func BenchmarkFig11TenFaultyLinksUPP(b *testing.B) {
	runPoint(b, experiments.RunSpec{
		Topo: topology.BaselineConfig(), Scheme: experiments.SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Rate: 0.02, Seed: 3, Dur: benchDur,
		Faults: 10, FaultSeed: 77, UseUpDown: true,
	})
}

// Fig. 12: upward-packet counting on a sharing-heavy benchmark.
func BenchmarkFig12UpwardPackets(b *testing.B) {
	pt := runFullSystem(b, fullSystemSpec("fft", experiments.SchemeUPP))
	b.ReportMetric(float64(pt.Upward), "upward/run")
}

// Fig. 13: detection-threshold sensitivity at a high load.
func BenchmarkFig13Threshold20(b *testing.B)   { benchThreshold(b, 20) }
func BenchmarkFig13Threshold1000(b *testing.B) { benchThreshold(b, 1000) }

func benchThreshold(b *testing.B, th int) {
	b.Helper()
	var last experiments.Point
	for i := 0; i < b.N; i++ {
		pt, err := experiments.Run(experiments.RunSpec{
			Topo:       topology.BaselineConfig(),
			Scheme:     experiments.SchemeUPP,
			UPP:        core.Config{Threshold: th},
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Rate:       0.07,
			Seed:       3,
			Dur:        benchDur,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(last.Throughput, "flits/cycle/node")
	b.ReportMetric(float64(last.Upward), "upward/run")
}

// Fig. 14: the area model.
func BenchmarkFig14AreaModel(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		for _, vcs := range []int{1, 4} {
			v += power.OverheadPercent("upp", power.ChipletRouter, vcs)
			v += power.OverheadPercent("upp", power.InterposerRouter, vcs)
			v += power.OverheadPercent("remote_control", power.ChipletRouter, vcs)
		}
	}
	b.ReportMetric(v/float64(b.N), "pct_sum")
}

// Fig. 15: energy estimation on a full-system run.
func BenchmarkFig15EnergyUPP(b *testing.B) {
	spec := fullSystemSpec("radix", experiments.SchemeUPP)
	b.ReportMetric(experiments.EnergyJ(spec, runFullSystem(b, spec))*1e6, "uJ/run")
}

// --- Extension benchmarks (beyond the paper's figures) ---------------------

// BenchmarkAdaptiveRoutingUPP: UPP over minimal-adaptive odd-even routing.
func BenchmarkAdaptiveRoutingUPP(b *testing.B) {
	runPoint(b, experiments.RunSpec{
		Topo: topology.BaselineConfig(), Scheme: experiments.SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Rate: 0.03, Seed: 3, Dur: benchDur,
		Adaptive: true,
	})
}

// BenchmarkVCTUPP: UPP under virtual cut-through flow control.
func BenchmarkVCTUPP(b *testing.B) {
	runPoint(b, experiments.RunSpec{
		Topo: topology.BaselineConfig(), Scheme: experiments.SchemeUPP, VCsPerVNet: 1,
		Pattern: traffic.UniformRandom{}, Rate: 0.03, Seed: 3, Dur: benchDur,
		VCT: true,
	})
}

// benchSweepJobs runs the Fig. 7-style UPP rate sweep through the worker
// pool at a given job count — the speedup of BenchmarkSweepJobsMax over
// BenchmarkSweepJobs1 is the parallel sweep engine's payoff.
func benchSweepJobs(b *testing.B, jobs int) {
	b.Helper()
	spec := experiments.RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     experiments.SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       11,
		Dur:        benchDur,
	}
	var pts int
	for i := 0; i < b.N; i++ {
		c, err := experiments.SweepRatesWith(spec, experiments.DefaultRates(), "bench",
			experiments.PoolOptions{Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		pts = len(c.Points)
	}
	b.ReportMetric(float64(pts), "points/sweep")
}

func BenchmarkSweepJobs1(b *testing.B) { benchSweepJobs(b, 1) }
func BenchmarkSweepJobsMax(b *testing.B) {
	benchSweepJobs(b, runtime.GOMAXPROCS(0))
}

// BenchmarkRunAllMixedBatch fans a mixed scheme batch across the pool —
// the RunAll fast path the figure runners sit on.
func BenchmarkRunAllMixedBatch(b *testing.B) {
	var specs []experiments.RunSpec
	for _, sch := range experiments.ComparedSchemes() {
		specs = append(specs, experiments.RunSpec{
			Topo:       topology.BaselineConfig(),
			Scheme:     sch,
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Rate:       0.03,
			Seed:       3,
			Dur:        benchDur,
		})
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(specs, experiments.PoolOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles/sec)
// at a moderate load — the practical cost of running experiments.
func BenchmarkSimulatorThroughput(b *testing.B) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for i := 0; i < b.N; i++ {
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.04, 5)
		g.Run(5000)
	}
	b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkComposableSearch measures the design-time restriction search —
// the cost the paper's flexibility critique is about.
func BenchmarkComposableSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := topology.MustBuild(topology.BaselineConfig())
		if _, err := composable.BuildTables(topo); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel measures the cycle kernel itself: the warmed-up UPP system
// advances b.N simulated cycles, so ns/op reads directly as ns per
// simulated cycle. Active/naive pairs at the same rate quantify the
// active-set kernel's win (large at low load, where most components are
// idle; ~neutral at saturation, where everything is awake anyway).
// allocs/op and B/op are reported per cycle: stable loads settle at ~0
// once buffers reach their high-water marks.
func benchKernel(b *testing.B, kernel string, rate float64) {
	b.Helper()
	s, err := experiments.Assemble(experiments.RunSpec{
		Topo: topology.BaselineConfig(), Scheme: experiments.SchemeUPP, Kernel: kernel,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, g := s.Net, s.Generator(traffic.UniformRandom{}, rate, 99)
	experiments.Drive(n, g, 2000, nil) // steady-state occupancy, not a cold, empty network
	b.ReportAllocs()
	b.ResetTimer()
	experiments.Drive(n, g, n.Cycle()+sim.Cycle(b.N), nil)
}

func BenchmarkKernelActiveLowLoad(b *testing.B) { benchKernel(b, network.KernelActive, 0.02) }
func BenchmarkKernelNaiveLowLoad(b *testing.B)  { benchKernel(b, network.KernelNaive, 0.02) }
func BenchmarkKernelActiveMidLoad(b *testing.B) { benchKernel(b, network.KernelActive, 0.05) }
func BenchmarkKernelNaiveMidLoad(b *testing.B)  { benchKernel(b, network.KernelNaive, 0.05) }
func BenchmarkKernelActiveSaturation(b *testing.B) {
	benchKernel(b, network.KernelActive, 0.20)
}
func BenchmarkKernelNaiveSaturation(b *testing.B) {
	benchKernel(b, network.KernelNaive, 0.20)
}

// benchKernelParallel measures the sharded parallel kernel. On a
// single-CPU machine the benchmark self-skips: the two-phase kernel can
// only lose there (same work plus handoff overhead), and a committed
// number from such a box would read as a parallel regression when it is
// really a hardware limitation — bench/ records num_cpu in its result
// file for the same reason.
func benchKernelParallel(b *testing.B, rate float64) {
	b.Helper()
	if runtime.NumCPU() == 1 {
		b.Skipf("parallel kernel benchmark skipped: runtime.NumCPU() == 1, no concurrency available "+
			"(the compute phase would serialize behind %d-way handoff overhead); run on a multi-core machine",
			runtime.GOMAXPROCS(0))
	}
	benchKernel(b, network.KernelParallel, rate)
}

func BenchmarkKernelParallelLowLoad(b *testing.B)    { benchKernelParallel(b, 0.02) }
func BenchmarkKernelParallelMidLoad(b *testing.B)    { benchKernelParallel(b, 0.05) }
func BenchmarkKernelParallelSaturation(b *testing.B) { benchKernelParallel(b, 0.20) }
