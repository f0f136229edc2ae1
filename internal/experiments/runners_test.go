package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
			t.Fatalf("missing table %s (got %v)", id, keysOf(got))
		}
	}
}

func keysOf(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// sweepFigures is every sweep figure of the experiment list, in order.
func sweepFigures() []figure {
	var figs []figure
	for _, e := range Experiments() {
		figs = append(figs, e.figs...)
	}
	return figs
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
		ts, err := e.Run(Settings{Dur: QuickDurations(), Opts: opts})
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

// TestSweepFigureSmoke runs a subset of the sweep figures through the
// pool at microDur and checks the tables each makes.
func TestSweepFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	for _, tc := range []struct {
		id     string
		tables []string
	}{
		{"fig7", []string{"fig7", "fig7_summary", "fig7_charts"}},
		{"fig9", []string{"fig9", "fig9_summary"}},
		{"fig10", []string{"fig10"}},
		{"fig11", []string{"fig11", "fig11_summary"}},
		{"fig13", []string{"fig13", "fig13_summary"}},
		{"tail_latency", []string{"tail_latency"}},
		{"ablation_depth", []string{"ablation_depth"}},
		{"ablation_gap", []string{"ablation_gap"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			fig := sweepFigure(t, tc.id)
			ts, err := fig.sweep(fig.curves(microDur), poolOpts)
			requireTables(t, ts, err, tc.tables...)
		})
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

func TestLoadBalanceRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	ts, err := LoadBalance(microDur, poolOpts)
	requireTables(t, ts, err, "load_balance", "load_balance_detail")
}

func TestFullSystemRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	ts, err := FullSystemSubset([]string{"blackscholes"}, 0.02, poolOpts)
	requireTables(t, ts, err, "fig8", "fig12", "fig15")
}
