package power_test

import (
	"math"
	"testing"

	"uppnoc/internal/power"
	"uppnoc/internal/router"
)

// TestBaselineAreasMatchPaper pins the calibration to the paper's
// published Synopsys DC numbers.
func TestBaselineAreasMatchPaper(t *testing.T) {
	if got := power.BaselineRouterArea(1); math.Abs(got-135083) > 1500 {
		t.Fatalf("1-VC baseline area %f, paper 135083", got)
	}
	if got := power.BaselineRouterArea(4); math.Abs(got-339371) > 3500 {
		t.Fatalf("4-VC baseline area %f, paper 339371", got)
	}
}

// TestOverheadPercentagesMatchFig14 checks the Fig. 14 bars within a
// tolerance.
func TestOverheadPercentagesMatchFig14(t *testing.T) {
	cases := []struct {
		scheme string
		kind   power.RouterKind
		vcs    int
		want   float64
	}{
		{"upp", power.ChipletRouter, 1, 3.77},
		{"upp", power.ChipletRouter, 4, 1.50},
		{"upp", power.InterposerRouter, 1, 2.62},
		{"upp", power.InterposerRouter, 4, 1.47},
		{"remote_control", power.ChipletRouter, 1, 4.14},
		{"remote_control", power.ChipletRouter, 4, 1.65},
		{"remote_control", power.InterposerRouter, 1, 0},
		{"composable", power.ChipletRouter, 1, 0},
		{"composable", power.InterposerRouter, 4, 0},
	}
	for _, c := range cases {
		got := power.OverheadPercent(c.scheme, c.kind, c.vcs)
		if math.Abs(got-c.want) > 0.15 {
			t.Errorf("%s %v %dVC: got %.2f%%, paper %.2f%%", c.scheme, c.kind, c.vcs, got, c.want)
		}
		if got > 5.0 {
			t.Errorf("%s overhead %.2f%% exceeds the paper's <4%% headline by a wide margin", c.scheme, got)
		}
	}
}

// TestStaticDominatesAtBenchmarkLoads reproduces the paper's observation
// that network energy on real benchmarks is leakage-dominated.
func TestStaticDominatesAtBenchmarkLoads(t *testing.T) {
	d := power.NetworkDescription{ChipletRouters: 64, InterposerRouters: 16, VCsPerVNet: 1, Scheme: "upp"}
	// A light realistic load: ~0.02 flits/cycle/node over 100k cycles.
	var s router.Stats
	flits := uint64(0.02 * 80 * 100000)
	s.BufferWrites, s.BufferReads = flits*6, flits*6 // ~6 hops average
	s.CrossbarTravs, s.LinkTravs = flits*6, flits*6
	s.SAGrants = flits * 6
	b := power.Estimate(d, 100000, s, 100)
	if b.StaticJ < 4*b.DynamicJ {
		t.Fatalf("static %.3e J should dominate dynamic %.3e J at benchmark loads", b.StaticJ, b.DynamicJ)
	}
}

// TestEnergyMonotonicInRuntime: longer runtime means more static energy.
func TestEnergyMonotonicInRuntime(t *testing.T) {
	d := power.NetworkDescription{ChipletRouters: 64, InterposerRouters: 16, VCsPerVNet: 1, Scheme: "composable"}
	var s router.Stats
	a := power.Estimate(d, 50000, s, 0)
	b := power.Estimate(d, 100000, s, 0)
	if b.Total() <= a.Total() {
		t.Fatal("energy not monotonic in runtime")
	}
}
