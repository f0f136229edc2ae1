package experiments

import (
	"strconv"
	"testing"
)

// TestCollectivesGolden is the acceptance gate for the workload engine
// (goldenTable on results/collectives.csv).
//
// Its "completes" subtest pins the table's qualitative shape the way
// TestGoldenShapes does for Fig. 7: every compared scheme finishes every
// workload within the horizon, UPP is never slower than composable, and
// the bursty all-to-all exercises UPP's recovery path while remote control
// pays injection holds.
func TestCollectivesGolden(t *testing.T) {
	goldenTable(t, "collectives", "collectives-golden", collectivesComplete)
}

func collectivesComplete(t *testing.T, tb Table) {
	rows := map[[2]string][]string{}
	for _, row := range tb.Rows {
		if row[2] != "true" {
			t.Fatalf("%s under %s did not complete", row[0], row[1])
		}
		rows[[2]string{row[0], row[1]}] = row
	}
	cell := func(wl string, sch SchemeName, col int) int {
		t.Helper()
		row, ok := rows[[2]string{wl, string(sch)}]
		if !ok {
			t.Fatalf("no row for %s under %s", wl, sch)
		}
		v, err := strconv.Atoi(row[col])
		if err != nil {
			t.Fatalf("%s under %s, column %d: %v", wl, sch, col, err)
		}
		return v
	}
	const finish, upward, injHolds = 3, 8, 11
	for _, wl := range []string{"ring_allreduce", "all_to_all"} {
		if upp, comp := cell(wl, SchemeUPP, finish), cell(wl, SchemeComposable, finish); upp > comp {
			t.Errorf("%s: UPP finishes at %d, after composable's %d", wl, upp, comp)
		}
		if cell(wl, SchemeRemoteControl, injHolds) == 0 {
			t.Errorf("%s: remote control reports zero injection holds — the gate is not engaging", wl)
		}
	}
	if cell("all_to_all:flits=10", SchemeUPP, upward) == 0 {
		t.Error("large all-to-all under UPP never selected an upward packet — the closed loop is not stressing recovery")
	}
}
