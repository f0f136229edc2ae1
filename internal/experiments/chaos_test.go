package experiments

import (
	"testing"

	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestChaosSoak is the robustness acceptance gate: fault plans × schemes
// × kernels, each run asserting (a) no panic, (b) full packet accounting
// — the drain either quiesces with every born packet consumed or yields
// a diagnosed stall, never a silent hang — and (c) bit-identical
// outcomes (Stats compared as a struct) across the three kernels at a
// fixed seed.
func TestChaosSoak(t *testing.T) {
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	flapsPlan := faults.Generate(topo, 21, faults.GenConfig{Flaps: 4, FlapEvery: 600, FlapDur: 150})
	lossPlan := faults.Generate(topo, 22, faults.GenConfig{DropReq: 0.25, DropAck: 0.25, DropStop: 0.25, DelayProb: 0.2, DelayMax: 6})
	stallsPlan := faults.Generate(topo, 23, faults.GenConfig{Stalls: 4, StallEvery: 700, StallDur: 200})
	mayhemPlan := faults.Generate(topo, 24, faults.GenConfig{
		Flaps: 3, FlapEvery: 800, FlapDur: 150,
		Stalls: 2, StallEvery: 900, StallDur: 150,
		DropReq: 0.15, DropAck: 0.15, DropStop: 0.15, DelayProb: 0.15, DelayMax: 4,
	})
	// heavyLossPlan loses so many signals that retry exhaustion outpaces
	// the watchdog: the expected outcome is a diagnosed stall, exercising
	// the StallDiagnostic path (which must also be kernel-identical).
	heavyLossPlan := faults.Generate(topo, 22, faults.GenConfig{DropReq: 0.4, DropAck: 0.4, DropStop: 0.4})
	cases := []struct {
		name     string
		scheme   SchemeName
		plan     faults.Plan
		rate     float64
		workload string
		arch     string
	}{
		{"upp_flaps", SchemeUPP, flapsPlan, 0.06, "", ""},
		{"upp_signal_loss", SchemeUPP, lossPlan, 0.06, "", ""},
		{"upp_signal_loss_heavy", SchemeUPP, heavyLossPlan, 0.12, "", ""},
		{"upp_eject_stalls", SchemeUPP, stallsPlan, 0.06, "", ""},
		{"upp_mayhem", SchemeUPP, mayhemPlan, 0.06, "", ""},
		{"remote_control_flaps", SchemeRemoteControl, flapsPlan, 0.06, "", ""},
		{"remote_control_stalls", SchemeRemoteControl, stallsPlan, 0.06, "", ""},
		{"none_flaps", SchemeNone, flapsPlan, 0.06, "", ""},
		// Closed-loop collective legs: the dependency-gated engine keeps
		// injecting while links flap and signals drop; stopping mid-ring
		// strands in-flight chunks the drain must still deliver.
		{"upp_collective_flaps", SchemeUPP, flapsPlan, 0, "ring_allreduce", ""},
		{"upp_collective_mayhem", SchemeUPP, mayhemPlan, 0, "all_to_all", ""},
		// Router-variant legs: port-down masks, drain pausing (oq) and
		// per-output allocation (voq) under flapping links must stay
		// panic-free, fully accounted and kernel-identical too.
		{"upp_flaps_oq", SchemeUPP, flapsPlan, 0.04, "", "oq"},
		{"upp_mayhem_voq", SchemeUPP, mayhemPlan, 0.06, "", "voq"},
	}
	kernels := []string{network.KernelNaive, network.KernelActive, network.KernelParallel}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var ref ChaosOutcome
			for i, kernel := range kernels {
				spec := ChaosSpec{
					RunSpec: RunSpec{
						Topo:       topology.BaselineConfig(),
						Scheme:     tc.scheme,
						Kernel:     kernel,
						Plan:       tc.plan,
						Pattern:    traffic.UniformRandom{},
						Rate:       tc.rate,
						Workload:   tc.workload,
						RouterArch: tc.arch,
						Seed:       97,
						UseUpDown:  true,
					},
					LoadCycles: 2500,
					DrainMax:   15000,
					StallLimit: 2000,
				}
				out, err := RunChaos(spec)
				if err != nil {
					t.Fatalf("kernel %s: %v", kernel, err)
				}
				if !out.Quiesced && out.Stall == "" {
					t.Fatalf("kernel %s: neither quiesced nor diagnosed", kernel)
				}
				if !out.Quiesced {
					t.Logf("kernel %s: diagnosed stall:\n%s", kernel, out.Stall)
				}
				if i == 0 {
					ref = out
					continue
				}
				if out.Quiesced != ref.Quiesced || out.FinalCycle != ref.FinalCycle {
					t.Fatalf("kernel %s diverges from %s: quiesced %v/%v, final cycle %d/%d",
						kernel, kernels[0], out.Quiesced, ref.Quiesced, out.FinalCycle, ref.FinalCycle)
				}
				if out.Stall != ref.Stall {
					t.Fatalf("kernel %s stall diagnostic diverges from %s:\n--- %s ---\n%s\n--- %s ---\n%s",
						kernel, kernels[0], kernel, out.Stall, kernels[0], ref.Stall)
				}
				if out.Stats != ref.Stats {
					t.Fatalf("kernel %s stats diverge from %s:\n%+v\nvs\n%+v", kernel, kernels[0], out.Stats, ref.Stats)
				}
			}
			if tc.scheme == SchemeUPP && tc.plan.Drop != [network.NumSignalKinds]float64{} {
				if ref.Stats.SignalsDropped == 0 {
					t.Error("signal-loss plan dropped nothing — fault injection not engaged?")
				}
				if ref.Stats.SignalRetries == 0 && ref.Stats.PopupsAborted == 0 && ref.Stats.PopupsStarted > 0 {
					t.Error("signals were dropped but no retry/abort was recorded — recovery not engaged?")
				}
			}
		})
	}
}

// TestChaosRunDeterminismSameKernel: the cheapest determinism property —
// the exact same spec twice on one kernel — catches any hidden RNG or
// map-order dependence in the fault path itself.
func TestChaosRunDeterminismSameKernel(t *testing.T) {
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	plan := faults.Generate(topo, 33, faults.GenConfig{
		Flaps: 2, FlapEvery: 700, FlapDur: 120,
		DropReq: 0.2, DropAck: 0.2, DropStop: 0.2,
	})
	spec := ChaosSpec{
		RunSpec: RunSpec{
			Topo: topology.BaselineConfig(), Scheme: SchemeUPP, Kernel: network.KernelActive, Plan: plan,
			Pattern: traffic.UniformRandom{}, Rate: 0.05, Seed: 11, UseUpDown: true,
		},
		LoadCycles: 1500, DrainMax: 12000, StallLimit: 2000,
	}
	a, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a != b {
		t.Fatalf("same spec, different outcomes:\n%+v\nvs\n%+v", a, b)
	}
}
