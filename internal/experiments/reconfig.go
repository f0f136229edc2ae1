package experiments

import (
	"fmt"

	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// ReconfigOutcome is the observable result of a reconfiguration soak.
// Identical specs must produce identical outcomes under every kernel.
type ReconfigOutcome struct {
	Quiesced    bool
	Stall       string
	FinalCycle  sim.Cycle
	Stats       network.Stats
	Transitions []reconfig.Transition
	Cuts        []reconfig.CutInfo
	// RoutesChanged counts interposer (src, dst) pairs whose route under
	// the final tables differs from the construction-time tables' — the
	// delivered-path evidence that reconfiguration actually rerouted.
	RoutesChanged int
}

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
		l.Faulty = true
		if _, err := routing.NewUpDown(topo); err == nil {
			ids = append(ids, l.ID)
		} else {
			l.Faulty = false
		}
	}
	if len(ids) < n {
		return nil, fmt.Errorf("reconfig: only %d of %d requested interposer links are killable", len(ids), n)
	}
	return ids, nil
}

// RunReconfig executes one dynamic-reconfiguration soak — load, a
// persistent fault plan (link kills, hot-adds, chiplet fail-stops) driven
// by the reconfiguration engine, then a drain that must quiesce — and
// validates the outcome:
//
//   - every planned transition must have finished (no wedged epoch);
//   - a quiesced run must pass the resource audit and packet accounting;
//   - no flit may have crossed a killed link after its cut (checked
//     against the CutInfo sent counters, skipping later-revived links);
//   - surviving routes must avoid every dead link, and at least one
//     route must actually have changed when links were killed.
func RunReconfig(spec ChaosSpec) (ReconfigOutcome, error) {
	if !spec.Plan.Persistent() {
		return ReconfigOutcome{}, fmt.Errorf("reconfig: soak plan has no persistent event (kill, add or killchiplet)")
	}
	run, err := runSoak("reconfig", spec)
	out := ReconfigOutcome{Stall: run.stall, FinalCycle: run.finalCycle, Stats: run.stats}
	n, eng, oldLocal := run.net, run.eng, run.oldLocal
	if eng != nil {
		out.Transitions = append(out.Transitions, eng.Transitions()...)
		out.Cuts = append(out.Cuts, eng.Cuts()...)
	}
	if err != nil || out.Stall != "" {
		return out, err
	}
	if !eng.Done() {
		return out, fmt.Errorf("reconfig: engine still mid-plan after drain (cursor or transition stuck)")
	}
	topo := n.Topo
	for _, c := range out.Cuts {
		l := topo.Links[c.Link]
		if !l.Faulty {
			continue // revived by a later hot-add
		}
		sa := n.Routers[l.A].PortSent(l.APort)
		sb := n.Routers[l.B].PortSent(l.BPort)
		if sa != c.SentA || sb != c.SentB {
			return out, fmt.Errorf("reconfig: link %d carried traffic after its cut at cycle %d (sent A %d->%d, B %d->%d)",
				c.Link, c.Cycle, c.SentA, sa, c.SentB, sb)
		}
	}
	// Delivered-path evidence: walk every interposer pair under the
	// final tables; no route may cross a dead link, and when links died
	// at least one route must differ from the construction-time tables'.
	newLocal := n.Hier().Local
	dead := map[int]bool{}
	for _, l := range topo.Links {
		if l.Faulty && !l.Vertical {
			dead[l.ID] = true
		}
	}
	nodes := topo.LayerNodes(topology.InterposerChiplet)
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			pa, err := reconfig.WalkRoute(topo, newLocal, topology.InterposerChiplet, src, dst)
			if err != nil {
				return out, fmt.Errorf("reconfig: final tables cannot route %d -> %d: %w", src, dst, err)
			}
			for i := 0; i+1 < len(pa); i++ {
				p := topo.Node(pa[i]).PortToNeighbor(pa[i+1])
				if l := topo.Node(pa[i]).Ports[p].Link; l != nil && dead[l.ID] {
					return out, fmt.Errorf("reconfig: surviving route %d -> %d crosses dead link %d", src, dst, l.ID)
				}
			}
			pb, err := reconfig.WalkRoute(topo, oldLocal, topology.InterposerChiplet, src, dst)
			if err != nil {
				out.RoutesChanged++ // old tables fail across dead links
				continue
			}
			if len(pa) != len(pb) {
				out.RoutesChanged++
				continue
			}
			for i := range pa {
				if pa[i] != pb[i] {
					out.RoutesChanged++
					break
				}
			}
		}
	}
	if len(dead) > 0 && out.RoutesChanged == 0 {
		return out, fmt.Errorf("reconfig: %d links dead yet no interposer route changed", len(dead))
	}
	out.Quiesced = true
	return out, nil
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
	plan := faults.Plan{Kills: []faults.LinkKill{
		{Link: links[0], Cycle: killCycle},
		{Link: links[1], Cycle: killCycle},
	}}
	modes := []reconfig.Mode{reconfig.ModeAuto, reconfig.ModeDrainless, reconfig.ModeEpoch}
	rates := []float64{0.05, 0.10, 0.15}
	type cell struct {
		out ReconfigOutcome
		err error
	}
	cells := make([]cell, len(modes)*len(rates))
	err = forEachIndex(len(cells), opts, func(i int) {
		mode := modes[i/len(rates)]
		rate := rates[i%len(rates)]
		opts.Progress.log("reconfig: mode=%s rate=%.2f", mode, rate)
		cells[i].out, cells[i].err = RunReconfig(ChaosSpec{
			RunSpec: RunSpec{
				Topo:    topology.BaselineConfig(),
				Scheme:  SchemeUPP,
				Mode:    mode,
				Plan:    plan,
				Seed:    5,
				Pattern: traffic.UniformRandom{},
				Rate:    rate,
			},
			LoadCycles: int(killCycle) + dur.Measure,
			DrainMax:   200000,
			StallLimit: 20000,
		})
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if c.err != nil {
			return nil, c.err
		}
		mode := modes[i/len(rates)]
		rate := rates[i%len(rates)]
		if len(c.out.Transitions) != 1 {
			return nil, fmt.Errorf("reconfig: mode=%s rate=%.2f ran %d transitions, want 1", mode, rate, len(c.out.Transitions))
		}
		tr := c.out.Transitions[0]
		t.Rows = append(t.Rows, []string{
			mode.String(),
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%t", tr.Compatible),
			fmt.Sprintf("%d", tr.Finish-tr.Begin),
			fmt.Sprintf("%d", tr.Cut-tr.Begin),
			fmt.Sprintf("%d", c.out.Stats.RouteMigrations),
			fmt.Sprintf("%d", c.out.Stats.HeadsMigrated),
			fmt.Sprintf("%d", c.out.Stats.ReconfigHeldStreams),
			fmt.Sprintf("%d", c.out.Stats.PopupsCompleted),
			fmt.Sprintf("%t", c.out.Quiesced),
		})
	}
	return []Table{t}, nil
}
