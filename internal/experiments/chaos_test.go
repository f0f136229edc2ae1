package experiments

import (
	"reflect"
	"strings"
	"testing"

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
	const (
		flapsPlan  = "seed=21,flaps=4,flapevery=600,flapdur=150"
		lossPlan   = "seed=22,drop=0.25,delayprob=0.2,delaymax=6"
		stallsPlan = "seed=23,stalls=4,stallevery=700,stalldur=200"
		mayhemPlan = "seed=24,flaps=3,flapevery=800,flapdur=150,stalls=2,stallevery=900,stalldur=150,drop=0.15,delayprob=0.15,delaymax=4"
		// heavyLossPlan loses so many signals that retry exhaustion
		// outpaces the watchdog: the expected outcome is a diagnosed stall,
		// exercising the StallDiagnostic path (which must also be
		// kernel-identical).
		heavyLossPlan = "seed=22,drop=0.4"
	)
	cases := []struct {
		name     string
		scheme   SchemeName
		plan     string
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
			var ref SoakOutcome
			for i, kernel := range kernels {
				spec := SoakSpec{
					RunSpec: RunSpec{
						Topo:       topology.BaselineConfig(),
						Scheme:     tc.scheme,
						Kernel:     kernel,
						FaultPlan:  tc.plan,
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
				out, err := Soak(spec)
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
			if tc.scheme == SchemeUPP && strings.Contains(tc.plan, "drop=") {
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
	spec := SoakSpec{
		RunSpec: RunSpec{
			Topo: topology.BaselineConfig(), Scheme: SchemeUPP, Kernel: network.KernelActive,
			FaultPlan: "seed=33,flaps=2,flapevery=700,flapdur=120,drop=0.2",
			Pattern:   traffic.UniformRandom{}, Rate: 0.05, Seed: 11, UseUpDown: true,
		},
		LoadCycles: 1500, DrainMax: 12000, StallLimit: 2000,
	}
	a, err := Soak(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Soak(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec, different outcomes:\n%+v\nvs\n%+v", a, b)
	}
}
