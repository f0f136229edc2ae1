package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uppnoc/internal/coherence"
	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
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

// TestStaticTablesMatchResults: the tables that run no simulation must
// byte-match their committed results/*.csv.
func TestStaticTablesMatchResults(t *testing.T) {
	for _, tb := range []Table{Table1(), Table2(), Fig14()} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tb.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.CSV(); got != string(want) {
			t.Errorf("%s diverges from results/%s.csv:\n%s\ncommitted:\n%s", tb.ID, tb.ID, got, want)
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

// TestUPPWithThresholdPropagation: RunSpec.UPP reaches the scheme Assemble
// builds, each field alone, zero fields at the paper's values.
func TestUPPWithThresholdPropagation(t *testing.T) {
	def := core.DefaultConfig()
	for _, tc := range []struct {
		in   core.Config
		want core.Config
	}{
		{core.Config{}, def},
		{core.Config{Threshold: 20}, def},
		{core.Config{Threshold: 100}, core.Config{Threshold: 100, SignalGap: def.SignalGap}},
		{core.Config{Threshold: 1000}, core.Config{Threshold: 1000, SignalGap: def.SignalGap}},
		{core.Config{Threshold: -5}, def}, // non-positive thresholds fall back to the Table II value
		{core.Config{SignalGap: 12}, core.Config{Threshold: def.Threshold, SignalGap: 12}},
		{core.Config{Binding: "farthest"}, core.Config{Threshold: def.Threshold, SignalGap: def.SignalGap, Binding: "farthest"}},
	} {
		sm, err := Assemble(RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, UPP: tc.in})
		if err != nil {
			t.Fatalf("UPP %+v: %v", tc.in, err)
		}
		u, ok := sm.Net.Scheme().(*core.UPP)
		if !ok {
			t.Fatalf("UPP %+v: Assemble built %T, want *core.UPP", tc.in, sm.Net.Scheme())
		}
		if got := u.Config(); got != tc.want {
			t.Fatalf("UPP %+v: scheme config %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if _, err := Assemble(RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, UPP: core.Config{Binding: "nearest"}}); err == nil ||
		!strings.Contains(err.Error(), `"nearest"`) {
		t.Fatalf("unknown binding: err %v, want one naming it", err)
	}
	// A negative count or load is refused by name, never read as the
	// default that zero stands for.
	for _, tc := range []struct {
		field string
		set   func(*RunSpec)
	}{
		{"VCsPerVNet", func(s *RunSpec) { s.VCsPerVNet = -2 }},
		{"BufferDepth", func(s *RunSpec) { s.BufferDepth = -1 }},
		{"Dur.Warmup", func(s *RunSpec) { s.Dur.Warmup = -5 }},
		{"Dur.Measure", func(s *RunSpec) { s.Dur.Measure = -1 }},
		{"MaxCycles", func(s *RunSpec) { s.MaxCycles = -3 }},
		{"Faults", func(s *RunSpec) { s.Faults = -1 }},
		{"FaultsPerLayer", func(s *RunSpec) { s.FaultsPerLayer = -1 }},
		{"Rate", func(s *RunSpec) { s.Rate = -1 }},
		{"Rate", func(s *RunSpec) { s.Rate = math.NaN() }},
	} {
		spec := RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP}
		tc.set(&spec)
		if _, err := Assemble(spec); err == nil || !strings.Contains(err.Error(), "RunSpec."+tc.field+" ") {
			t.Errorf("%s out of range: err %v, want one naming the field", tc.field, err)
		}
	}
}

// TestUPPHardensUnderFaultPlan: UPP's signal watchdog runs exactly when a
// fault plan is attached, however the network was built — by Assemble or
// by network.New plus reconfig.Attach — so dropped signals are re-sent;
// without a plan nothing is ever retried.
func TestUPPHardensUnderFaultPlan(t *testing.T) {
	const cycles = 4000
	viaAssemble := func(plan string) network.Stats {
		sm, err := Assemble(RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, FaultPlan: plan})
		if err != nil {
			t.Fatal(err)
		}
		Drive(sm.Net, sm.Generator(traffic.UniformRandom{}, 0.10, 42), cycles, nil)
		return sm.Net.Stats
	}
	viaAttach := func(plan string) network.Stats {
		n, err := network.New(topology.MustBuild(topology.BaselineConfig()), network.DefaultConfig(), core.New(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if plan != "" {
			p, err := faults.ParseSpec(n.Topo, plan)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reconfig.Attach(n, p); err != nil {
				t.Fatal(err)
			}
		}
		Drive(n, traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42), cycles, nil)
		return n.Stats
	}
	for _, build := range []struct {
		name string
		run  func(plan string) network.Stats
	}{{"Assemble", viaAssemble}, {"reconfig.Attach", viaAttach}} {
		if st := build.run("seed=22,drop=0.25"); st.SignalsDropped == 0 || st.SignalRetries == 0 {
			t.Errorf("%s under a drop plan: %d signals dropped, %d retries; want both > 0", build.name, st.SignalsDropped, st.SignalRetries)
		}
		if st := build.run(""); st.PopupsStarted == 0 || st.SignalRetries != 0 {
			t.Errorf("%s without a plan: %d popups, %d retries; want popups and no retry", build.name, st.PopupsStarted, st.SignalRetries)
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

// TestRunFullSystemSmoke: a coherence workload spec runs to completion
// through Run — every access done, runtime, packets and energy read off
// the Point — and a recorded one is refused, having no message trace.
func TestRunFullSystemSmoke(t *testing.T) {
	spec := RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, VCsPerVNet: 1, Seed: 2,
		Workload: coherence.Spec("swaptions", 0.03)}
	pt, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Completed || pt.FinishCycle <= 0 || pt.Packets == 0 || pt.OpsFired != pt.OpsTotal || EnergyJ(spec, pt) <= 0 {
		t.Fatalf("degenerate result: %+v", pt)
	}
	spec.Record = true
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "record") {
		t.Fatalf("recording a coherence run: err %v, want a refusal", err)
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
