package experiments

import (
	"fmt"

	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// KillableInterposerLinks returns n interposer mesh link IDs whose
// cumulative removal keeps every layer connected — the standard victims
// of the reconfiguration soaks. Selection runs on a scratch topology.
func KillableInterposerLinks(cfg topology.SystemConfig, n int) ([]int, error) {
	topo, err := topology.Build(cfg)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, l := range topo.Links {
		if len(ids) == n {
			break
		}
		if l.Vertical || l.Faulty || topo.Node(l.A).Chiplet != topology.InterposerChiplet {
			continue
		}
		topo.SetFaulty(l, true)
		if _, err := routing.NewUpDown(topo); err == nil {
			ids = append(ids, l.ID)
		} else {
			topo.SetFaulty(l, false)
		}
	}
	if len(ids) < n {
		return nil, fmt.Errorf("reconfig: only %d of %d requested interposer links are killable", len(ids), n)
	}
	return ids, nil
}

// Reconfig is the -exp reconfig figure: the migration cost of killing
// two interposer links under load, drainless vs epoch-fenced, at three
// offered loads. Transition cycles are Begin→Finish wall-clock; cut
// latency is Begin→Cut (the fence-and-drain window).
func Reconfig(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "reconfig",
		Title:  "Dynamic reconfiguration: migration cost of killing 2 interposer links under load",
		Header: []string{"mode", "rate", "compatible", "transition_cycles", "cut_latency", "route_migrations", "heads_migrated", "held_streams", "popups", "quiesced"},
		Notes: []string{
			"modes: auto = CDG compatibility decides, drainless = never hold injection, epoch = always fence",
			"UPP recovers transient mixed-epoch cycles during the overlap (DESIGN.md §15)",
		},
	}
	links, err := KillableInterposerLinks(topology.BaselineConfig(), 2)
	if err != nil {
		return nil, err
	}
	killCycle := sim.Cycle(dur.Warmup)
	if killCycle < 200 {
		killCycle = 200
	}
	modes := []string{"auto", "drainless", "epoch"}
	rates := []float64{0.05, 0.10, 0.15}
	type cell struct {
		out SoakOutcome
		err error
	}
	cells := make([]cell, len(modes)*len(rates))
	dispatch(len(cells), opts, func(i int, _ func() bool) {
		mode := modes[i/len(rates)]
		rate := rates[i%len(rates)]
		opts.Progress.log("reconfig: mode=%s rate=%.2f", mode, rate)
		cells[i].out, cells[i].err = Soak(SoakSpec{
			RunSpec: opts.machine(RunSpec{
				Topo:      topology.BaselineConfig(),
				Scheme:    SchemeUPP,
				FaultPlan: fmt.Sprintf("kill=%d@%d,kill=%d@%d,mode=%s", links[0], killCycle, links[1], killCycle, mode),
				Seed:      5,
				Pattern:   traffic.UniformRandom{},
				Rate:      rate,
			}),
			LoadCycles: int(killCycle) + dur.Measure,
			DrainMax:   200000,
			StallLimit: 20000,
		})
	}, nil)
	for i, c := range cells {
		if c.err != nil {
			return nil, c.err
		}
		mode := modes[i/len(rates)]
		rate := rates[i%len(rates)]
		if len(c.out.Transitions) != 1 {
			return nil, fmt.Errorf("reconfig: mode=%s rate=%.2f ran %d transitions, want 1", mode, rate, len(c.out.Transitions))
		}
		tr, st := c.out.Transitions[0], c.out.Stats
		t.AddRowf(mode, fmt.Sprintf("%.2f", rate), tr.Compatible, tr.Finish-tr.Begin, tr.Cut-tr.Begin,
			st.RouteMigrations, st.HeadsMigrated, st.ReconfigHeldStreams, st.PopupsCompleted, c.out.Quiesced)
	}
	return []Table{t}, nil
}
