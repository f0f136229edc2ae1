// Package-level benchmarks: one per table/figure of the paper's
// evaluation. Each benchmark runs a scaled-down version of the
// corresponding experiment (the cmd/figures binary runs the full-length
// ones) and reports the domain metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature. BenchmarkStep times the cycle kernel itself.
package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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

// BenchmarkSweepMixedBatch fans a mixed scheme batch of one-run curves
// across the pool — the Sweep the figure runners sit on.
func BenchmarkSweepMixedBatch(b *testing.B) {
	var cs []experiments.SweepCurve
	for _, sch := range experiments.ComparedSchemes() {
		cs = append(cs, experiments.SweepCurve{Spec: experiments.RunSpec{
			Topo:       topology.BaselineConfig(),
			Scheme:     sch,
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Rate:       0.03,
			Seed:       3,
			Dur:        benchDur,
		}})
	}
	for i := 0; i < b.N; i++ {
		if err := experiments.Sweep(cs, experiments.PoolOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComposableSearch measures the design-time restriction search —
// the cost the paper's flexibility critique is about — on the baseline, on
// eight boundary routers per chiplet, on Fig. 9's large system and on the
// 512-router ScaleSmall and 2048-router ScaleLarge systems. The topology
// is built outside the timed loop: the search only reads it.
func BenchmarkComposableSearch(b *testing.B) {
	eight := topology.BaselineConfig()
	eight.BoundaryPerChiplet = 8
	for _, c := range []struct {
		name  string
		build func() *topology.Topology
	}{
		{"Baseline", func() *topology.Topology { return topology.MustBuild(topology.BaselineConfig()) }},
		{"Boundary8", func() *topology.Topology { return topology.MustBuild(eight) }},
		{"LargeConfig", func() *topology.Topology { return topology.MustBuild(topology.LargeConfig()) }},
		{"ScaleSmall", func() *topology.Topology { return topology.MustBuildScale(topology.ScaleSmallConfig()) }},
		{"ScaleLarge", func() *topology.Topology { return topology.MustBuildScale(topology.ScaleLargeConfig()) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			topo := c.build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := composable.BuildTables(topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStep measures the cycle kernel: one op is one simulated cycle,
// so ns/op reads as ns per cycle. Each row runs UPP under uniform random
// traffic (generator seed 99): on the 80-router baseline at a low, a mid
// and a past-saturation load under every kernel, and on the 512-, 2048- and
// 8192-router scale presets below their saturation under the active and
// parallel kernels. A row assembles its system, preallocates 4096 pooled
// packets and runs 2000 warm-up cycles (steady-state occupancy, not a cold
// network) before the timer starts. Profile a row with go test's
// profilers (`make profile`).
//
// Besides ns/op, B/op and allocs/op (per cycle: ~0 below saturation once
// buffers reach their high-water marks; past it the sources' backlog keeps
// growing), a row reports
//   - ns/flit-hop: the window's wall time over its crossbar traversals
//     (the bench's router.flit_hops);
//   - <phase>-ns/cycle: the coordinator's wall time in each phase of
//     Step (network.PhaseClock), and traffic-ns/cycle, the rest of the
//     cycle (the traffic source and experiments.Drive's loop); routers
//     retire in the walk that steps them, so compute includes their
//     retirement and retire-ns/cycle covers only the NI walk and NI
//     retirement;
//   - under the parallel kernel, w<i>-<phase>-busy-ns/cycle: worker i's
//     time inside its share of deliver, compute and EndOfCycle, and
//     cross-share: the share of the window's outbox flits and credits
//     that a worker other than their emitter delivered
//     (Network.ParallelEvents);
//   - pool-gets, pool-reuses, pool-live: the packet pool's counters at the
//     end of the run, warm-up included.
//
// The clock reads the time six or seven times a cycle, and ns/op pays for
// those reads.
func BenchmarkStep(b *testing.B) {
	all := []string{network.KernelActive, network.KernelNaive, network.KernelParallel}
	scaled := []string{network.KernelActive, network.KernelParallel}
	small, large, huge := topology.ScaleSmallConfig(), topology.ScaleLargeConfig(), topology.ScaleHugeConfig()
	for _, row := range []struct {
		system  string
		scale   *topology.ScaleConfig
		rate    float64
		kernels []string
	}{
		{"baseline", nil, 0.02, all},
		{"baseline", nil, 0.05, all},
		{"baseline", nil, 0.20, all},
		{"small", &small, 0.01, scaled},
		{"large", &large, 0.01, scaled},
		// 0.01 is past this mesh's saturation (bench/README.md).
		{"huge", &huge, 0.005, scaled},
	} {
		for _, kernel := range row.kernels {
			b.Run(fmt.Sprintf("%s/rate=%g/%s", row.system, row.rate, kernel), func(b *testing.B) {
				benchStep(b, experiments.RunSpec{
					Topo: topology.BaselineConfig(), Scale: row.scale, Scheme: experiments.SchemeUPP, Kernel: kernel,
				}, row.rate)
			})
		}
	}
}

// stepPhases names network.PhaseClock's phases in BenchmarkStep's units.
var stepPhases = [network.NumPhases]string{"deliver", "start-of-cycle", "compute", "commit", "retire", "end-of-cycle"}

// benchStep is one BenchmarkStep row. On a single-CPU machine a parallel
// row self-skips: the two-phase kernel can only lose there (same work plus
// hand-off overhead), and a number from such a box would read as a
// parallel regression when it is a hardware limit (bench/ records num_cpu
// in its result file for the same reason).
func benchStep(b *testing.B, spec experiments.RunSpec, rate float64) {
	if spec.Kernel == network.KernelParallel && runtime.NumCPU() == 1 {
		b.Skip("parallel kernel: runtime.NumCPU() == 1, no concurrency available; run on a multi-core machine")
	}
	s, err := experiments.Assemble(spec)
	if err != nil {
		b.Fatal(err)
	}
	n, g := s.Net, s.Generator(traffic.UniformRandom{}, rate, 99)
	n.PacketPool().Preallocate(4096)
	experiments.Drive(n, g, 2000, nil)
	var clock network.PhaseClock
	n.SetPhaseClock(&clock)
	hops0 := n.RouterStats().CrossbarTravs
	local0, cross0 := n.ParallelEvents()
	b.ReportAllocs()
	b.ResetTimer()
	experiments.Drive(n, g, n.Cycle()+sim.Cycle(b.N), nil)
	b.StopTimer()

	wall := b.Elapsed()
	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
	if hops := n.RouterStats().CrossbarTravs - hops0; hops > 0 {
		b.ReportMetric(float64(wall.Nanoseconds())/float64(hops), "ns/flit-hop")
	}
	step := time.Duration(0)
	for ph, name := range stepPhases {
		b.ReportMetric(perCycle(clock.Wall[ph]), name+"-ns/cycle")
		step += clock.Wall[ph]
	}
	b.ReportMetric(perCycle(wall-step), "traffic-ns/cycle")
	for w := range clock.Busy[network.PhaseDeliver] {
		for _, ph := range []int{network.PhaseDeliver, network.PhaseCompute, network.PhaseEndOfCycle} {
			b.ReportMetric(perCycle(clock.Busy[ph][w]), fmt.Sprintf("w%d-%s-busy-ns/cycle", w, stepPhases[ph]))
		}
	}
	if n.Shards() > 1 {
		local, cross := n.ParallelEvents()
		if all := local - local0 + cross - cross0; all > 0 {
			b.ReportMetric(float64(cross-cross0)/float64(all), "cross-share")
		}
	}
	st := n.PacketPool().Stats
	b.ReportMetric(float64(st.Gets), "pool-gets")
	b.ReportMetric(float64(st.Reuses), "pool-reuses")
	b.ReportMetric(float64(st.Live()), "pool-live")
}
