package experiments

import (
	"fmt"

	"uppnoc/internal/coherence"
	"uppnoc/internal/power"
	"uppnoc/internal/topology"
)

// FullSystemResult is one coherence run's outcome.
type FullSystemResult struct {
	Benchmark string
	Scheme    SchemeName
	VCs       int
	Runtime   int64
	Upward    uint64
	Packets   uint64
	EnergyJ   float64
}

// RunFullSystem executes one benchmark profile under one scheme.
func RunFullSystem(bench coherence.Workload, sch SchemeName, vcs int, seed uint64) (FullSystemResult, error) {
	// Seed seed-1 seeds the network seed, what this runner has always used.
	sm, err := Assemble(RunSpec{Topo: topology.BaselineConfig(), Scheme: sch, VCsPerVNet: vcs, Seed: seed - 1})
	if err != nil {
		return FullSystemResult{}, err
	}
	n, topo := sm.Net, sm.Net.Topo
	sys, err := coherence.New(n, coherence.DefaultConfig(), bench, seed+13)
	if err != nil {
		return FullSystemResult{}, err
	}
	runtime, err := sys.Run(30_000_000)
	if err != nil {
		return FullSystemResult{}, fmt.Errorf("%s under %s: %w", bench.Name, sch, err)
	}
	nChiplet := len(topo.Cores())
	nInterposer := len(topo.Interposer)
	breakdown := power.Estimate(power.NetworkDescription{
		ChipletRouters:    nChiplet,
		InterposerRouters: nInterposer,
		VCsPerVNet:        vcs,
		Scheme:            string(sch),
	}, int64(runtime), n.RouterStats(), n.Stats.SignalsSent)
	return FullSystemResult{
		Benchmark: bench.Name,
		Scheme:    sch,
		VCs:       vcs,
		Runtime:   int64(runtime),
		Upward:    n.Stats.UpwardPackets,
		Packets:   n.Stats.EjectedPackets,
		EnergyJ:   breakdown.Total(),
	}, nil
}

// FullSystem reproduces Figs. 8, 12 and 15 in one pass: per-benchmark
// runtime (normalized to composable), detected upward packets, and
// normalized energy, for 1 and 4 VCs per VNet.
//
// scale shrinks each benchmark's access quota (1.0 = the calibrated full
// profile); the normalized comparisons are stable across scales.
func FullSystem(scale float64, opts PoolOptions) ([]Table, error) {
	return fullSystemOver(coherence.Benchmarks(), scale, opts)
}

// FullSystemSubset runs the full-system figures over a named subset of
// benchmarks (tests and quick looks).
func FullSystemSubset(names []string, scale float64, opts PoolOptions) ([]Table, error) {
	var benches []coherence.Workload
	for _, name := range names {
		w, err := coherence.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		benches = append(benches, w)
	}
	return fullSystemOver(benches, scale, opts)
}

func fullSystemOver(benchmarks []coherence.Workload, scale float64, opts PoolOptions) ([]Table, error) {
	fig8 := Table{
		ID:     "fig8",
		Title:  "Normalized full-system runtime (PARSEC + SPLASH-2 profiles)",
		Header: []string{"benchmark", "vcs", "composable", "remote_control", "upp", "upp_vs_composable"},
		Notes: []string{
			"paper: UPP cuts runtime by 5.7%~10.3% (1 VC) and 3.1%~4.6% (4 VCs) on average vs composable",
		},
	}
	fig12 := Table{
		ID:     "fig12",
		Title:  "Detected upward packets per benchmark (UPP)",
		Header: []string{"benchmark", "vcs", "upward_packets", "total_packets", "fraction"},
		Notes: []string{
			"paper: upward packets are <0.01% of packets and drop sharply from 1 VC to 4 VCs",
		},
	}
	fig15 := Table{
		ID:     "fig15",
		Title:  "Normalized energy consumption",
		Header: []string{"benchmark", "vcs", "composable", "remote_control", "upp"},
		Notes: []string{
			"paper: leakage dominates, so normalized energy tracks normalized runtime; UPP lowest on average",
		},
	}
	var geoRuntime, geoEnergy [2]struct {
		logSum map[SchemeName]float64
		n      int
	}
	for i := range geoRuntime {
		geoRuntime[i].logSum = map[SchemeName]float64{}
		geoEnergy[i].logSum = map[SchemeName]float64{}
	}

	// Every (benchmark, vcs, scheme) run is self-contained, so the grid
	// fans across the pool; the tables are then assembled serially in the
	// original order.
	type job struct {
		bench coherence.Workload
		vcs   int
		sch   SchemeName
	}
	var grid []job
	for _, bench := range benchmarks {
		b := bench.Scale(scale)
		for _, vcs := range []int{1, 4} {
			for _, sch := range ComparedSchemes() {
				grid = append(grid, job{b, vcs, sch})
			}
		}
	}
	results := make([]FullSystemResult, len(grid))
	errs := make([]error, len(grid))
	if err := forEachIndex(len(grid), opts, func(i int) {
		j := grid[i]
		opts.Progress.log("fullsystem: %s vcs=%d %s", j.bench.Name, j.vcs, j.sch)
		results[i], errs[i] = RunFullSystem(j.bench, j.sch, j.vcs, 71)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// grid and the assembly loops below enumerate (benchmark, vcs, scheme)
	// in the same order, so results are consumed by a running index.
	gi := 0
	for _, bench := range benchmarks {
		b := bench.Scale(scale)
		for vi, vcs := range []int{1, 4} {
			res := map[SchemeName]FullSystemResult{}
			for _, sch := range ComparedSchemes() {
				res[sch] = results[gi]
				gi++
			}
			comp := float64(res[SchemeComposable].Runtime)
			normRC := float64(res[SchemeRemoteControl].Runtime) / comp
			normUPP := float64(res[SchemeUPP].Runtime) / comp
			fig8.AddRowf(b.Name, vcs, 1.0, normRC, normUPP, fmtPct(100*(normUPP-1)))
			up := res[SchemeUPP]
			frac := 0.0
			if up.Packets > 0 {
				frac = float64(up.Upward) / float64(up.Packets)
			}
			fig12.AddRowf(b.Name, vcs, up.Upward, up.Packets, fmt.Sprintf("%.6f%%", 100*frac))
			compE := res[SchemeComposable].EnergyJ
			fig15.AddRowf(b.Name, vcs, 1.0, res[SchemeRemoteControl].EnergyJ/compE, res[SchemeUPP].EnergyJ/compE)

			for _, sch := range ComparedSchemes() {
				geoRuntime[vi].logSum[sch] += ln(float64(res[sch].Runtime) / comp)
				geoEnergy[vi].logSum[sch] += ln(res[sch].EnergyJ / compE)
			}
			geoRuntime[vi].n++
			geoEnergy[vi].n++
		}
	}
	for vi, vcs := range []int{1, 4} {
		rt := geoRuntime[vi]
		en := geoEnergy[vi]
		fig8.AddRowf("geomean", vcs, 1.0,
			exp(rt.logSum[SchemeRemoteControl]/float64(rt.n)),
			exp(rt.logSum[SchemeUPP]/float64(rt.n)), "")
		fig15.AddRowf("geomean", vcs, 1.0,
			exp(en.logSum[SchemeRemoteControl]/float64(en.n)),
			exp(en.logSum[SchemeUPP]/float64(en.n)))
	}
	return []Table{fig8, fig12, fig15}, nil
}
