package experiments

import (
	"cmp"
	"fmt"
	"math"

	"uppnoc/internal/coherence"
	"uppnoc/internal/network"
	"uppnoc/internal/power"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// fullSystemFigure is Figs. 8, 12 and 15 from one set of runs: each of
// the 18 PARSEC + SPLASH-2 profiles x {1,4} VCs x the three schemes, one
// coherence run each. scale shrinks every profile's access quota (1.0 =
// the calibrated profile); the normalized comparisons are stable across
// scales.
func fullSystemFigure(scale float64) figure {
	var benches []string
	for _, w := range coherence.Benchmarks() {
		benches = append(benches, coherence.Spec(w.Name, scale))
	}
	return figure{
		id: "fullsystem",
		// Seed 70 (network 71, coherence system 84) made results/fig8.csv,
		// fig12.csv and fig15.csv. The horizon only stops a run that would
		// never finish.
		template: RunSpec{Topo: topology.BaselineConfig(), Seed: 70, MaxCycles: 30_000_000},
		axes:     []axis{workloadAxis(benches...), vcsAxis, schemeAxis},
		reduce:   fullSystemTables,
	}
}

// fullSystemTables reads the runs — per benchmark and VC count, the three
// schemes in turn — into Fig. 8's runtime and Fig. 15's energy, both
// normalized to composable with a geomean per VC count, and Fig. 12's
// upward packets under UPP. A run that did not finish has no runtime and
// fails the figure.
func fullSystemTables(cs []SweepCurve) ([]Table, error) {
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
	vcsList, n := []int{1, 4}, len(ComparedSchemes())
	// Per VC count and scheme (composable, remote control, UPP), the sums
	// of log runtime and log energy normalized to composable.
	var logRuntime, logEnergy [2][3]float64
	for g := 0; g+n <= len(cs); g += n {
		var runtime, energy [3]float64
		for si, c := range cs[g : g+n] {
			p := c.Points[0]
			if !p.Completed {
				return nil, fmt.Errorf("%s under %s did not finish in %d cycles", c.Spec.Workload, c.Spec.Scheme, c.Spec.horizon())
			}
			runtime[si], energy[si] = float64(p.FinishCycle), EnergyJ(c.Spec, p)
		}
		s, up := cs[g].Spec, cs[g+2].Points[0]
		w, err := coherence.ParseSpec(s.Workload)
		if err != nil {
			return nil, err
		}
		vi := g / n % len(vcsList)
		normUPP := runtime[2] / runtime[0]
		fig8.AddRowf(w.Name, s.VCsPerVNet, 1.0, runtime[1]/runtime[0], normUPP, fmtPct(100*(normUPP-1)))
		frac := 0.0
		if up.Packets > 0 {
			frac = float64(up.Upward) / float64(up.Packets)
		}
		fig12.AddRowf(w.Name, s.VCsPerVNet, up.Upward, up.Packets, fmt.Sprintf("%.6f%%", 100*frac))
		fig15.AddRowf(w.Name, s.VCsPerVNet, 1.0, energy[1]/energy[0], energy[2]/energy[0])
		for si := range runtime {
			logRuntime[vi][si] += math.Log(runtime[si] / runtime[0])
			logEnergy[vi][si] += math.Log(energy[si] / energy[0])
		}
	}
	benches := float64(len(cs) / (n * len(vcsList)))
	for vi, vcs := range vcsList {
		fig8.AddRowf("geomean", vcs, 1.0, math.Exp(logRuntime[vi][1]/benches), math.Exp(logRuntime[vi][2]/benches), "")
		fig15.AddRowf("geomean", vcs, 1.0, math.Exp(logEnergy[vi][1]/benches), math.Exp(logEnergy[vi][2]/benches))
	}
	return []Table{fig8, fig12, fig15}, nil
}

// runCoherence is runWorkload for a coherence spec: the MESI system,
// seeded Seed+14, driven until every core has finished its access quota
// and the network has drained, or to the horizon. FinishCycle is the
// runtime (Fig. 8), OpsFired/OpsTotal count accesses, Messages the
// protocol messages consumed, and Events keeps the routers' datapath
// counters for the energy model (EnergyJ).
func runCoherence(spec RunSpec, n *network.Network) (Point, error) {
	if spec.Record {
		return Point{}, fmt.Errorf("experiments: %s: a coherence run has no message trace to record", spec.Workload)
	}
	w, err := coherence.ParseSpec(spec.Workload)
	if err != nil {
		return Point{}, err
	}
	sys, err := coherence.New(n, w, spec.Seed+14)
	if err != nil {
		return Point{}, err
	}
	Drive(n, sys, sim.Cycle(spec.horizon()), sys.Done)
	p := measure(spec, n)
	events := n.RouterStats()
	p.Completed, p.Messages, p.InjectionHolds, p.Events = sys.Done(), n.Stats.ConsumedPackets, n.Stats.InjectionHolds, &events
	p.OpsFired, p.OpsTotal = sys.Progress()
	if p.Completed {
		p.FinishCycle = n.Cycle()
	}
	return p, nil
}

// EnergyJ is Fig. 15's reading of a finished coherence run on a Topo
// system: the power model over the Point's datapath events and signal
// hops for its runtime. It is zero for a Point without events.
func EnergyJ(spec RunSpec, p Point) float64 {
	if p.Events == nil {
		return 0
	}
	t := spec.Topo
	return power.Estimate(power.NetworkDescription{
		ChipletRouters:    t.ChipletsX * t.ChipletsY * t.ChipletW * t.ChipletH,
		InterposerRouters: t.InterposerW * t.InterposerH,
		VCsPerVNet:        cmp.Or(spec.VCsPerVNet, network.DefaultConfig().Router.VCsPerVNet),
		Scheme:            string(spec.Scheme),
	}, int64(p.FinishCycle), *p.Events, p.Signals).Total()
}
