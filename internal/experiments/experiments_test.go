package experiments

import (
	"strings"
	"testing"

	"uppnoc/internal/coherence"
	"uppnoc/internal/core"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

func TestTableRender(t *testing.T) {
	tb := Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRowf("v", 1.23456)
	tb.AddRow("longer-cell", "y")
	out := tb.Render()
	for _, want := range []string{"== x: demo ==", "a", "bb", "1.235", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "v,1.235") {
		t.Fatalf("csv rows wrong: %q", csv)
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 8 {
		t.Fatalf("table1 has %d rows", len(t1.Rows))
	}
	// The UPP row claims every property — the paper's punchline.
	upp := t1.Rows[len(t1.Rows)-1]
	if upp[0] != "upp" {
		t.Fatal("last row should be upp")
	}
	for _, cell := range upp[1:] {
		if cell != "yes" {
			t.Fatalf("upp row not all-yes: %v", upp)
		}
	}
	t2 := Table2()
	if len(t2.Rows) < 10 {
		t.Fatal("table2 too small")
	}
	f14 := Fig14()
	if len(f14.Rows) != 4 {
		t.Fatalf("fig14 has %d rows", len(f14.Rows))
	}
	// Composable column is all zero.
	for _, r := range f14.Rows {
		if r[2] != "0.00%" {
			t.Fatalf("composable overhead nonzero: %v", r)
		}
	}
}

func TestMakeScheme(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cases := []struct {
		name     SchemeName
		wantName string // Name() of the instantiated scheme; "" means error
	}{
		{SchemeComposable, "composable"},
		{SchemeRemoteControl, "remote_control"},
		{SchemeUPP, "upp"},
		{SchemeNone, "none"},
		{"bogus", ""},
		{"", ""},
		{"UPP", ""}, // scheme names are case-sensitive
		{"upp ", ""},
	}
	for _, tc := range cases {
		t.Run(string(tc.name), func(t *testing.T) {
			s, err := MakeScheme(tc.name, topo)
			if tc.wantName == "" {
				if err == nil {
					t.Fatalf("MakeScheme(%q) accepted", tc.name)
				}
				if !strings.Contains(err.Error(), string(tc.name)) {
					t.Fatalf("error %q does not quote the bad name", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := s.Name(); got != tc.wantName {
				t.Fatalf("MakeScheme(%q).Name() = %q, want %q", tc.name, got, tc.wantName)
			}
		})
	}
}

func TestUPPWithThresholdPropagation(t *testing.T) {
	defaultGap := core.DefaultConfig().SignalGap
	cases := []struct {
		in, want int
	}{
		{20, 20},
		{100, 100},
		{1000, 1000},
		{0, 20}, // non-positive thresholds fall back to the Table II value
		{-5, 20},
	}
	for _, tc := range cases {
		s := UPPWithThreshold(tc.in)
		u, ok := s.(*core.UPP)
		if !ok {
			t.Fatalf("UPPWithThreshold returned %T, want *core.UPP", s)
		}
		cfg := u.Config()
		if cfg.Threshold != tc.want {
			t.Fatalf("UPPWithThreshold(%d): threshold %d, want %d", tc.in, cfg.Threshold, tc.want)
		}
		if cfg.SignalGap != defaultGap {
			t.Fatalf("UPPWithThreshold(%d) disturbed SignalGap: %d, want %d", tc.in, cfg.SignalGap, defaultGap)
		}
	}
}

func TestRatioAndReduction(t *testing.T) {
	if got := ratioPct(1.2, 1.0); got < 19.9 || got > 20.1 {
		t.Fatalf("ratioPct = %v", got)
	}
	if got := ratioPct(1, 0); got != 0 {
		t.Fatalf("ratioPct div0 = %v", got)
	}
	a := Curve{Points: []Point{{TotalLat: 90}, {TotalLat: 100, Saturated: true}}}
	base := Curve{Points: []Point{{TotalLat: 100}, {TotalLat: 100}}}
	if got := latencyReductionPct(a, base); got < 9.9 || got > 10.1 {
		t.Fatalf("latencyReductionPct = %v", got)
	}
}

func TestRunSmoke(t *testing.T) {
	pt, err := Run(RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.02,
		Seed:       1,
		Dur:        Durations{Warmup: 500, Measure: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TotalLat <= 0 || pt.Throughput <= 0 || pt.Packets == 0 {
		t.Fatalf("degenerate point: %+v", pt)
	}
}

func TestSweepStopsPastSaturation(t *testing.T) {
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Seed:       1,
		Dur:        Durations{Warmup: 1000, Measure: 4000},
	}
	c, err := SweepRatesWith(spec, []float64{0.02, 0.30, 0.35, 0.40, 0.45}, "probe", PoolOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) > 3 {
		t.Fatalf("sweep ran %d points; should stop two past saturation", len(c.Points))
	}
	if c.SaturationRate != 0.02 {
		t.Fatalf("saturation rate %v", c.SaturationRate)
	}
}

func TestRunFullSystemSmoke(t *testing.T) {
	w, err := coherence.BenchmarkByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.03)
	r, err := RunFullSystem(w, SchemeUPP, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime <= 0 || r.Packets == 0 || r.EnergyJ <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
}

func TestFaultyRunUsesUpDown(t *testing.T) {
	pt, err := Run(RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.02,
		Seed:       1,
		Dur:        Durations{Warmup: 500, Measure: 2000},
		Faults:     8,
		FaultSeed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TotalLat <= 0 {
		t.Fatal("no traffic delivered on the faulty system")
	}
}
