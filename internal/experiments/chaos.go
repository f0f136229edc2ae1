package experiments

import (
	"errors"
	"fmt"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
)

// ChaosSpec describes one soak: a machine under an active fault plan
// (RunSpec.Plan or FaultPlan) and LoadCycles of its traffic — the closed
// loop RunSpec.Workload when set, which the end of the load window stops
// mid-collective, else Pattern at Rate — followed by a drain that must
// either quiesce cleanly or produce a diagnosed stall, never a panic,
// never a silent hang. The drain runs for at most DrainMax cycles with
// StallLimit as the no-ejection watchdog threshold.
type ChaosSpec struct {
	RunSpec
	LoadCycles int
	DrainMax   int
	StallLimit int
}

// ChaosOutcome is the observable result of a chaos run. Two runs of the
// same spec must produce identical outcomes under every kernel — the
// chaos soak asserts it field by field (Stats with struct equality).
type ChaosOutcome struct {
	Quiesced   bool
	Stall      string // the stall diagnostic's rendering, "" when quiesced
	FinalCycle sim.Cycle
	Stats      network.Stats
}

// RunChaos executes one chaos run on a fresh topology (flaps mutate link
// state, so topologies are never shared between runs) and validates the
// outcome's accounting:
//
//   - a quiesced run must pass CheckQuiescent, have consumed every born
//     packet, and (for UPP) hold no stale protocol state;
//   - a stalled run must surface *network.StallDiagnostic — any other
//     drain failure is a harness error.
func RunChaos(spec ChaosSpec) (ChaosOutcome, error) {
	run, err := runSoak("chaos", spec)
	out := ChaosOutcome{Stall: run.stall, FinalCycle: run.finalCycle, Stats: run.stats}
	out.Quiesced = err == nil && run.stall == ""
	return out, err
}

// soakRun is a soak after its drain: the network, the reconfiguration
// engine (nil for a plan with no persistent event), the local routing the
// network was built with, and the drain's outcome — stall is the stall
// diagnostic's rendering, "" when the network quiesced and passed the
// audit. finalCycle and stats are zero if the run failed before draining.
type soakRun struct {
	net        *network.Network
	eng        *reconfig.Engine
	oldLocal   routing.Local
	stall      string
	finalCycle sim.Cycle
	stats      network.Stats
}

// runSoak is the one soak path, a chaos run whose plan may also be
// persistent (RunSpec.Mode then picks the reconfiguration engine's
// transitions): the machine assembled, LoadCycles of its source, then a
// drain that must end in a diagnosed stall or in a network that is
// quiesced, passes CheckQuiescent, has consumed every born packet and (for
// UPP) holds no stale protocol state. name prefixes the audit's errors.
func runSoak(name string, s ChaosSpec) (soakRun, error) {
	var run soakRun
	sm, err := Assemble(s.RunSpec)
	if err != nil {
		return run, err
	}
	n := sm.Net
	run.net, run.eng, run.oldLocal = n, sm.Engine, n.Hier().Local
	var src TrafficSource
	if s.Workload != "" {
		eng, _, err := workloadEngine(n, s.Workload)
		if err != nil {
			return run, err
		}
		// Loop the collective for the whole load window; stopping the
		// Ticks afterwards strands the current iteration's in-flight
		// chunks, which the drain below must deliver.
		eng.Iterations = 1 << 20
		src = eng
	} else {
		src = sm.Generator(s.Pattern, s.Rate, s.Seed+7777)
	}
	Drive(n, src, sim.Cycle(s.LoadCycles), nil)
	derr := n.Drain(s.DrainMax, sim.Cycle(s.StallLimit))
	run.finalCycle, run.stats = n.Cycle(), n.Stats
	if derr != nil {
		var diag *network.StallDiagnostic
		if !errors.As(derr, &diag) {
			return run, fmt.Errorf("%s: drain failed without a stall diagnostic: %w", name, derr)
		}
		run.stall = diag.Error()
		return run, nil
	}
	if !n.Quiesced() {
		return run, fmt.Errorf("%s: Drain returned nil with %d packets in flight (drainmax %d too small?)", name, n.InFlight(), s.DrainMax)
	}
	if err := n.CheckQuiescent(); err != nil {
		return run, fmt.Errorf("%s: quiesced network fails the resource audit: %w", name, err)
	}
	if n.Stats.BornPackets != n.Stats.ConsumedPackets {
		return run, fmt.Errorf("%s: packet accounting broken: born %d consumed %d", name, n.Stats.BornPackets, n.Stats.ConsumedPackets)
	}
	if u, ok := n.Scheme().(*core.UPP); ok {
		if err := u.UPPStateOK(); err != nil {
			return run, fmt.Errorf("%s: stale UPP state after quiescing: %w", name, err)
		}
	}
	return run, nil
}
