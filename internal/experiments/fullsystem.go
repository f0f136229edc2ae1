package experiments

import (
	"fmt"
	"math"

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
	sys, err := coherence.New(n, bench, seed+13)
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
	// Every (benchmark, vcs, scheme) run is self-contained, so the grid
	// fans across the pool; the tables are then assembled in grid order,
	// one row per (benchmark, vcs) from its schemes' consecutive results.
	type job struct {
		bench coherence.Workload
		vcs   int
		sch   SchemeName
	}
	vcsList, schemes := []int{1, 4}, ComparedSchemes()
	var grid []job
	for _, bench := range benchmarks {
		for _, vcs := range vcsList {
			for _, sch := range schemes {
				grid = append(grid, job{bench.Scale(scale), vcs, sch})
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
	// Per VC count and scheme (composable, remote control, UPP), the sums
	// of log runtime and log energy normalized to composable.
	var logRuntime, logEnergy [2][3]float64
	for g := 0; g < len(grid); g += len(schemes) {
		res, name, vcs := results[g:g+len(schemes)], grid[g].bench.Name, grid[g].vcs
		vi := g / len(schemes) % len(vcsList)
		comp, compE := float64(res[0].Runtime), res[0].EnergyJ
		normUPP := float64(res[2].Runtime) / comp
		fig8.AddRowf(name, vcs, 1.0, float64(res[1].Runtime)/comp, normUPP, fmtPct(100*(normUPP-1)))
		up := res[2]
		frac := 0.0
		if up.Packets > 0 {
			frac = float64(up.Upward) / float64(up.Packets)
		}
		fig12.AddRowf(name, vcs, up.Upward, up.Packets, fmt.Sprintf("%.6f%%", 100*frac))
		fig15.AddRowf(name, vcs, 1.0, res[1].EnergyJ/compE, res[2].EnergyJ/compE)
		for si, r := range res {
			logRuntime[vi][si] += math.Log(float64(r.Runtime) / comp)
			logEnergy[vi][si] += math.Log(r.EnergyJ / compE)
		}
	}
	n := float64(len(benchmarks))
	for vi, vcs := range vcsList {
		fig8.AddRowf("geomean", vcs, 1.0, math.Exp(logRuntime[vi][1]/n), math.Exp(logRuntime[vi][2]/n), "")
		fig15.AddRowf("geomean", vcs, 1.0, math.Exp(logEnergy[vi][1]/n), math.Exp(logEnergy[vi][2]/n))
	}
	return []Table{fig8, fig12, fig15}, nil
}
