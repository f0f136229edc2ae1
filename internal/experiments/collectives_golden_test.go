package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"uppnoc/internal/network"
)

// TestCollectivesGolden is the acceptance gate for the workload engine:
// regenerating the collectives table must byte-match the committed
// results/collectives.csv under every cycle kernel and at one and four
// sweep workers. A mismatch means either a behavior change (regenerate
// the CSV deliberately with `make collectives-golden`) or a determinism
// break (fix the code).
func TestCollectivesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	wantBytes, err := os.ReadFile(filepath.Join("..", "..", "results", "collectives.csv"))
	if err != nil {
		t.Fatalf("committed golden missing (regenerate with `make collectives-golden`): %v", err)
	}
	want := string(wantBytes)
	for _, kernel := range []string{network.KernelActive, network.KernelNaive, network.KernelParallel} {
		for _, jobs := range []int{1, 4} {
			t.Run(kernel+"_jobs"+string(rune('0'+jobs)), func(t *testing.T) {
				t.Setenv("UPP_KERNEL", kernel)
				t.Setenv("UPP_CACHE_DIR", "") // simulate under the kernel, not read a result
				tb := tableByID(t, "collectives", PoolOptions{Jobs: jobs})
				got := tb.CSV()
				if got == want {
					return
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d diverges from the committed golden:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("line counts differ: got %d, committed %d", len(gl), len(wl))
			})
		}
	}
}

// TestCollectivesCompleteUnderAllSchemes pins the table's qualitative
// shape the way TestGoldenShapes does for Fig. 7: every compared scheme
// finishes every workload within the horizon, UPP is never slower than
// composable, and the bursty all-to-all exercises UPP's recovery path
// while remote control pays injection holds.
func TestCollectivesCompleteUnderAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	rows := map[[2]string][]string{}
	for _, row := range tableByID(t, "collectives", PoolOptions{Jobs: 4}).Rows {
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
