package experiments

import (
	"errors"
	"fmt"

	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
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
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return ChaosOutcome{}, err
	}
	var scheme network.Scheme
	if spec.Scheme == SchemeUPP {
		scheme = HardenedUPP()
	} else {
		scheme, err = MakeScheme(spec.Scheme, topo)
		if err != nil {
			return ChaosOutcome{}, err
		}
	}
	cfg := network.DefaultConfig()
	cfg.Kernel = spec.Kernel
	cfg.RouterArch = spec.RouterArch
	cfg.Seed = spec.Seed + 1
	cfg.UseUpDown = true // link flaps must not strand XY-routed traffic conceptually; up*/down* tolerates faults
	n, err := NewNetwork(topo, cfg, scheme)
	if err != nil {
		return ChaosOutcome{}, err
	}
	if _, err := reconfig.Attach(n, reconfig.Config{Plan: spec.Plan}); err != nil {
		return ChaosOutcome{}, err
	}
	if spec.Workload != "" {
		eng, _, werr := workloadEngine(n, spec.Workload)
		if werr != nil {
			return ChaosOutcome{}, werr
		}
		// Loop the collective for the whole load window; stopping the
		// Ticks afterwards strands the current iteration's in-flight
		// chunks, which the drain below must deliver.
		eng.Iterations = 1 << 20
		for i := 0; i < spec.LoadCycles; i++ {
			eng.Tick(n.Cycle())
			n.Step()
		}
	} else {
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, spec.Rate, spec.Seed+7777)
		g.Run(spec.LoadCycles)
		g.SetRate(0)
	}
	out := ChaosOutcome{}
	derr := n.Drain(spec.DrainMax, sim.Cycle(spec.StallLimit))
	out.FinalCycle = n.Cycle()
	out.Stats = n.Stats
	if derr == nil {
		if !n.Quiesced() {
			return out, fmt.Errorf("chaos: Drain returned nil with %d packets in flight (drainmax %d too small?)", n.InFlight(), spec.DrainMax)
		}
		if err := n.CheckQuiescent(); err != nil {
			return out, fmt.Errorf("chaos: quiesced network fails the resource audit: %w", err)
		}
		if n.Stats.BornPackets != n.Stats.ConsumedPackets {
			return out, fmt.Errorf("chaos: packet accounting broken: born %d consumed %d", n.Stats.BornPackets, n.Stats.ConsumedPackets)
		}
		if u, ok := scheme.(*core.UPP); ok {
			if err := u.UPPStateOK(); err != nil {
				return out, fmt.Errorf("chaos: stale UPP state after quiescing: %w", err)
			}
		}
		out.Quiesced = true
		return out, nil
	}
	var diag *network.StallDiagnostic
	if !errors.As(derr, &diag) {
		return out, fmt.Errorf("chaos: drain failed without a stall diagnostic: %w", derr)
	}
	out.Stall = diag.Error()
	return out, nil
}
