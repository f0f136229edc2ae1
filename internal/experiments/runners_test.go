package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// microDur keeps runner smoke tests fast; the figures binary runs real
// durations. Curve shapes are meaningless at this scale — these tests
// check wiring, not physics.
var microDur = Durations{Warmup: 300, Measure: 1200}

// poolOpts runs the smoke tests through the worker pool with a couple of
// workers, so the runner refactors are exercised in their parallel shape.
var poolOpts = PoolOptions{Jobs: 2}

func requireTables(t *testing.T, ts []Table, err error, want ...string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tb := range ts {
		got[tb.ID] = true
		if len(tb.Header) == 0 {
			t.Fatalf("table %s has no header", tb.ID)
		}
		if len(tb.Rows) == 0 && !strings.HasSuffix(tb.ID, "_charts") {
			t.Fatalf("table %s has no rows", tb.ID)
		}
		// Render and CSV must not panic and must carry the ID.
		if !strings.Contains(tb.Render(), tb.ID) {
			t.Fatalf("render of %s missing its ID", tb.ID)
		}
		_ = tb.CSV()
	}
	for _, id := range want {
		if !got[id] {
			t.Fatalf("missing table %s (got %v)", id, got)
		}
	}
}

// sweepFigures is every sweep figure of the experiment list, in order
// (the full-system figure at figures' default -scale).
func sweepFigures() []figure {
	var figs []figure
	for _, e := range Experiments() {
		if e.figs != nil {
			figs = append(figs, e.figs(0.25)...)
		}
	}
	return figs
}

// figureTables measures the curves cs of fig in one Sweep and reduces
// them to the figure's tables, leaving the measured curves in cs.
func figureTables(fig figure, cs []SweepCurve, opts PoolOptions) ([]Table, error) {
	if err := Sweep(cs, opts); err != nil {
		return nil, err
	}
	return fig.fromCurves(cs)
}

// sweepFigure is the sweep figure id of the experiment list.
func sweepFigure(t *testing.T, id string) figure {
	t.Helper()
	for _, f := range sweepFigures() {
		if f.id == id {
			return f
		}
	}
	t.Fatalf("no sweep figure %s", id)
	return figure{}
}

// tableByID runs the Experiments() entry id at quick durations and
// returns its table of the same ID: tests read results by table ID, as
// `figures -exp` names them, not through a runner of their own.
func tableByID(t *testing.T, id string, opts PoolOptions) Table {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID != id {
			continue
		}
		ts, err := Tables([]Experiment{e}, Settings{Dur: QuickDurations(), Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range ts {
			if tb.ID == id {
				return tb
			}
		}
	}
	t.Fatalf("no table %s", id)
	return Table{}
}

// TestSweepFigureSmoke runs a subset of the sweep figures through one
// Tables call, and so one Sweep, at microDur and checks the tables each
// makes (fig7's render is TestKernelCSVGolden's).
func TestSweepFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	cases := []struct {
		id     string
		tables []string
	}{
		{"fig9", []string{"fig9", "fig9_summary"}},
		{"fig10", []string{"fig10"}},
		{"fig11", []string{"fig11", "fig11_summary"}},
		{"fig13", []string{"fig13", "fig13_summary"}},
		{"tail_latency", []string{"tail_latency"}},
		{"ablation_depth", []string{"ablation_depth"}},
		{"ablation_gap", []string{"ablation_gap"}},
	}
	var figs []figure
	for _, tc := range cases {
		figs = append(figs, sweepFigure(t, tc.id))
	}
	entry := Experiment{figs: func(float64) []figure { return figs }}
	ts, err := Tables([]Experiment{entry}, Settings{Dur: microDur, Opts: poolOpts})
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) { requireTables(t, ts, err, tc.tables...) })
	}
}

// TestFig2RunnerSmoke also pins composable's restriction search: the
// table must byte-match the committed results/fig2.csv.
func TestFig2RunnerSmoke(t *testing.T) {
	ts, err := Fig2(PoolOptions{})
	requireTables(t, ts, err, "fig2")
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ts[0].CSV(); got != string(want) {
		t.Fatalf("fig2 diverges from results/fig2.csv:\n%s\ncommitted:\n%s", got, want)
	}
}

// TestFig2SharesTheSweepSearch: Fig. 2 reads composable's process-wide
// table cache, so a figures process that also sweeps the baseline runs the
// design-time search once.
func TestFig2SharesTheSweepSearch(t *testing.T) {
	cfg := topology.BaselineConfig()
	composableMu.Lock()
	delete(composableCache, cfg)
	composableMu.Unlock()
	if _, err := Fig2(PoolOptions{}); err != nil {
		t.Fatal(err)
	}
	composableMu.Lock()
	filled := composableCache[cfg]
	composableMu.Unlock()
	if filled == nil {
		t.Fatal("Fig2 ran the search without filling the cache")
	}
	s, err := cachedScheme(cfg, SchemeComposable, topology.MustBuild(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if s != network.Scheme(filled) {
		t.Fatal("a baseline composable run searched again after Fig2")
	}
}

// TestLoadBalanceRunnerSmoke runs the load-balance figure at microDur:
// every scheme reads its sixteen boundary routers, composable routing's
// turn restrictions leave its down links less balanced than UPP's static
// binding (Sec. III-B), and asking for the reading changes nothing else
// about the run.
func TestLoadBalanceRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	fig := sweepFigure(t, "load_balance")
	cs := fig.curves(microDur)
	ts, err := figureTables(fig, cs, poolOpts)
	requireTables(t, ts, err, "load_balance", "load_balance_detail")
	if rows := len(ts[1].Rows); rows != 16*len(ComparedSchemes()) {
		t.Fatalf("detail has %d rows, want 16 boundary routers per scheme", rows)
	}
	imbalance := map[string]float64{}
	for _, row := range ts[0].Rows {
		imbalance[row[0]], _ = strconv.ParseFloat(row[3], 64)
	}
	if imbalance["composable"] <= imbalance["upp"] {
		t.Errorf("composable's imbalance %v is not above UPP's %v", imbalance["composable"], imbalance["upp"])
	}
	spec := cs[len(cs)-1].Spec // UPP
	read, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.DownLinks = false
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if read.DownLinks == nil || plain.DownLinks != nil {
		t.Fatalf("down-link reading present %v asked, %v not asked; want only when asked", read.DownLinks != nil, plain.DownLinks != nil)
	}
	if read.DownLinks = nil; read != plain {
		t.Fatalf("reading the down links changed the run:\n%+v\n%+v", read, plain)
	}
}

// TestFullSystemRunnerSmoke runs the full-system figure on one benchmark
// at a small quota: uncached, cold and again against one cache directory.
// The re-run is six hits and no miss, all three print the same tables,
// and upward packets stay under Fig. 12's 0.01% of packets.
func TestFullSystemRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	fig := fullSystemFigure(0.02)
	render := func() string {
		ts, err := figureTables(fig, fig.curves(microDur)[:6], poolOpts) // blackscholes: {1,4} VCs x three schemes
		requireTables(t, ts, err, "fig8", "fig12", "fig15")
		var b strings.Builder
		for _, tb := range ts {
			for _, row := range tb.Rows {
				if pct, _ := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "%"), 64); tb.ID == "fig12" && pct >= 0.01 {
					t.Errorf("%s at %s VCs: %s of packets are upward, want < 0.01%%", row[0], row[1], row[4])
				}
			}
			b.WriteString(tb.Render())
		}
		return b.String()
	}
	want := render()
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	var cold, again string
	if _, misses := cacheDelta(func() { cold = render() }); misses != 6 {
		t.Fatalf("cold run: %d misses, want 6", misses)
	}
	if hits, misses := cacheDelta(func() { again = render() }); hits != 6 || misses != 0 {
		t.Fatalf("re-run: %d hits / %d misses, want 6 / 0", hits, misses)
	}
	if cold != want || again != want {
		t.Fatalf("cached tables differ from the uncached run:\nuncached:\n%s\ncold:\n%s\nre-run:\n%s", want, cold, again)
	}
}
