package experiments

import (
	"errors"
	"fmt"

	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// ChaosSpec describes one chaos-soak run: traffic under an active fault
// plan, followed by a drain that must either quiesce cleanly or produce
// a diagnosed stall — never a panic, never a silent hang.
type ChaosSpec struct {
	Scheme SchemeName
	Kernel string
	Plan   faults.Plan
	Rate   float64
	Seed   uint64
	// Workload, when non-empty (workload.ParseSpec syntax), replaces the
	// rate-driven generator with the closed-loop collective engine: the
	// workload loops for LoadCycles, then injection stops mid-collective
	// and the stranded in-flight chunks must drain like any other traffic.
	Workload string
	// LoadCycles of offered traffic, then the generator stops and the
	// network drains for at most DrainMax cycles with StallLimit as the
	// no-ejection watchdog threshold.
	LoadCycles int
	DrainMax   int
	StallLimit int
	// RouterArch selects the router microarchitecture ("iq", "oq",
	// "voq"); empty defers to UPP_ROUTER and then the iq default.
	RouterArch string
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

// RunChaos executes one chaos run on a fresh baseline topology (flaps
// mutate link state, so topologies are never shared between runs) and
// validates the outcome's accounting:
//
//   - a quiesced run must pass CheckQuiescent, have consumed every born
//     packet, and (for UPP) hold no stale protocol state;
//   - a stalled run must surface *network.StallDiagnostic — any other
//     drain failure is a harness error.
func RunChaos(spec ChaosSpec) (ChaosOutcome, error) {
	run, err := runSoak("chaos", spec, reconfig.ModeAuto)
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
// persistent (mode then picks the reconfiguration engine's transitions):
// a fresh baseline system under up*/down* routing (faults must not strand
// traffic), the plan attached, LoadCycles of the workload or of
// uniform-random traffic at Rate, then a drain that must end in a
// diagnosed stall or in a network that is quiesced, passes CheckQuiescent,
// has consumed every born packet and (for UPP) holds no stale protocol
// state. name prefixes the audit's errors.
func runSoak(name string, s ChaosSpec, mode reconfig.Mode) (soakRun, error) {
	var run soakRun
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return run, err
	}
	var scheme network.Scheme
	if s.Scheme == SchemeUPP {
		scheme = HardenedUPP()
	} else if scheme, err = MakeScheme(s.Scheme, topo); err != nil {
		return run, err
	}
	cfg := network.DefaultConfig()
	cfg.Kernel = s.Kernel
	cfg.RouterArch = s.RouterArch
	cfg.Seed = s.Seed + 1
	cfg.UseUpDown = true
	n, err := NewNetwork(topo, cfg, scheme)
	if err != nil {
		return run, err
	}
	run.net, run.oldLocal = n, n.Hier().Local
	if run.eng, err = reconfig.Attach(n, reconfig.Config{Plan: s.Plan, Mode: mode}); err != nil {
		return run, err
	}
	if s.Workload != "" {
		eng, _, werr := workloadEngine(n, s.Workload)
		if werr != nil {
			return run, werr
		}
		// Loop the collective for the whole load window; stopping the
		// Ticks afterwards strands the current iteration's in-flight
		// chunks, which the drain below must deliver.
		eng.Iterations = 1 << 20
		for i := 0; i < s.LoadCycles; i++ {
			eng.Tick(n.Cycle())
			n.Step()
		}
	} else {
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, s.Rate, s.Seed+7777)
		if eng := run.eng; eng != nil {
			g.CoreAlive = func(id topology.NodeID) bool { return eng.ChipletAlive(topo.Node(id).Chiplet) }
		}
		g.Run(s.LoadCycles)
		g.SetRate(0)
	}
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
	if u, ok := scheme.(*core.UPP); ok {
		if err := u.UPPStateOK(); err != nil {
			return run, fmt.Errorf("%s: stale UPP state after quiescing: %w", name, err)
		}
	}
	return run, nil
}
