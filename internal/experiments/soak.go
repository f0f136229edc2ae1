package experiments

import (
	"errors"
	"fmt"
	"slices"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// SoakSpec describes one soak: a machine under an active fault plan
// (RunSpec.FaultPlan) and LoadCycles of its traffic — the closed loop
// RunSpec.Workload when set, which the end of the load window stops
// mid-collective, else Pattern at Rate — followed by a drain that must
// either quiesce cleanly or produce a diagnosed stall, never a panic,
// never a silent hang. The drain runs for at most DrainMax cycles with
// StallLimit as the no-ejection watchdog threshold.
type SoakSpec struct {
	RunSpec
	LoadCycles int
	DrainMax   int
	StallLimit int
}

// SoakOutcome is the observable result of a soak. Two runs of the same
// spec must produce identical outcomes under every kernel — the soak tests
// assert it field by field.
type SoakOutcome struct {
	Quiesced   bool
	Stall      string // the stall diagnostic's rendering, "" when quiesced
	FinalCycle sim.Cycle
	Stats      network.Stats
	// The reconfiguration engine's log; empty unless the plan has a
	// persistent event (kill, add, killchiplet).
	Transitions []reconfig.Transition
	Cuts        []reconfig.CutInfo
	// RoutesChanged counts interposer (src, dst) pairs whose route under
	// the final tables differs from the construction-time tables' — the
	// delivered-path evidence that reconfiguration actually rerouted.
	RoutesChanged int
}

// Soak runs one soak on a fresh topology (flaps and kills mutate link
// state, so topologies are never shared between runs) and validates the
// outcome:
//
//   - a stalled run must surface *network.StallDiagnostic — any other
//     drain failure is a harness error;
//   - a quiesced run must pass CheckQuiescent, have consumed every born
//     packet, and (for UPP) hold no stale protocol state;
//   - when the plan has a persistent event, a quiesced run must also have
//     finished every transition, carried no flit across a killed link
//     after its cut, and routed every surviving pair around the dead links
//     (auditReconfig).
func Soak(s SoakSpec) (SoakOutcome, error) {
	var out SoakOutcome
	sm, err := Assemble(s.RunSpec)
	if err != nil {
		return out, err
	}
	n, eng := sm.Net, sm.Engine
	oldLocal := n.Hier().Local
	var src TrafficSource
	if s.Workload != "" {
		weng, _, err := workloadEngine(n, s.Workload)
		if err != nil {
			return out, err
		}
		// Loop the collective for the whole load window; stopping the
		// Ticks afterwards strands the current iteration's in-flight
		// chunks, which the drain below must deliver.
		weng.Iterations = 1 << 20
		src = weng
	} else {
		src = sm.Generator(s.Pattern, s.Rate, s.Seed+7777)
	}
	Drive(n, src, sim.Cycle(s.LoadCycles), nil)
	derr := n.Drain(s.DrainMax, sim.Cycle(s.StallLimit))
	out.FinalCycle, out.Stats = n.Cycle(), n.Stats
	if eng != nil {
		out.Transitions, out.Cuts = eng.Transitions(), eng.Cuts()
	}
	if derr != nil {
		var diag *network.StallDiagnostic
		if !errors.As(derr, &diag) {
			return out, fmt.Errorf("soak: drain failed without a stall diagnostic: %w", derr)
		}
		out.Stall = diag.Error()
		return out, nil
	}
	if !n.Quiesced() {
		return out, fmt.Errorf("soak: Drain returned nil with %d packets in flight (drainmax %d too small?)", n.InFlight(), s.DrainMax)
	}
	if err := n.CheckQuiescent(); err != nil {
		return out, fmt.Errorf("soak: quiesced network fails the resource audit: %w", err)
	}
	if n.Stats.BornPackets != n.Stats.ConsumedPackets {
		return out, fmt.Errorf("soak: packet accounting broken: born %d consumed %d", n.Stats.BornPackets, n.Stats.ConsumedPackets)
	}
	if u, ok := n.Scheme().(*core.UPP); ok {
		if err := u.UPPStateOK(); err != nil {
			return out, fmt.Errorf("soak: stale UPP state after quiescing: %w", err)
		}
	}
	if eng != nil {
		if !eng.Done() {
			return out, fmt.Errorf("soak: reconfiguration engine still mid-plan after drain (cursor or transition stuck)")
		}
		if out.RoutesChanged, err = auditReconfig(n, out.Cuts, oldLocal); err != nil {
			return out, err
		}
	}
	out.Quiesced = true
	return out, nil
}

// auditReconfig checks a quiesced network after a persistent plan: the
// endpoints of every link still dead have sent nothing since its cut (the
// CutInfo counters; a later hot-add legitimately revives a link), and
// under the final tables every interposer pair routes around the dead
// links. It returns how many pairs route differently from oldLocal, the
// construction-time tables, which must be some when links died.
func auditReconfig(n *network.Network, cuts []reconfig.CutInfo, oldLocal routing.Local) (int, error) {
	topo := n.Topo
	for _, c := range cuts {
		l := topo.Links[c.Link]
		if !l.Faulty {
			continue // revived by a later hot-add
		}
		sa := n.Routers[l.A].PortSent(l.APort)
		sb := n.Routers[l.B].PortSent(l.BPort)
		if sa != c.SentA || sb != c.SentB {
			return 0, fmt.Errorf("soak: link %d carried traffic after its cut at cycle %d (sent A %d->%d, B %d->%d)",
				c.Link, c.Cycle, c.SentA, sa, c.SentB, sb)
		}
	}
	newLocal := n.Hier().Local
	dead := map[int]bool{}
	for _, l := range topo.Links {
		if l.Faulty && !l.Vertical {
			dead[l.ID] = true
		}
	}
	changed := 0
	nodes := topo.LayerNodes(topology.InterposerChiplet)
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			pa, err := reconfig.WalkRoute(topo, newLocal, topology.InterposerChiplet, src, dst)
			if err != nil {
				return 0, fmt.Errorf("soak: final tables cannot route %d -> %d: %w", src, dst, err)
			}
			for i := 0; i+1 < len(pa); i++ {
				p := topo.Node(pa[i]).PortToNeighbor(pa[i+1])
				if l := topo.Node(pa[i]).Ports[p].Link; l != nil && dead[l.ID] {
					return 0, fmt.Errorf("soak: surviving route %d -> %d crosses dead link %d", src, dst, l.ID)
				}
			}
			// Old tables may fail across dead links: that pair changed too.
			if pb, err := reconfig.WalkRoute(topo, oldLocal, topology.InterposerChiplet, src, dst); err != nil || !slices.Equal(pa, pb) {
				changed++
			}
		}
	}
	if len(dead) > 0 && changed == 0 {
		return 0, fmt.Errorf("soak: %d links dead yet no interposer route changed", len(dead))
	}
	return changed, nil
}
