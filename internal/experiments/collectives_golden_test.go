package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
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
				tables, err := Collectives(PoolOptions{Jobs: jobs})
				if err != nil {
					t.Fatal(err)
				}
				got := tables[0].CSV()
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
	run := func(wl string, sch SchemeName) WorkloadPoint {
		t.Helper()
		pt, err := RunWorkload(WorkloadSpec{RunSpec: RunSpec{
			Topo:     topology.BaselineConfig(),
			Scheme:   sch,
			Workload: wl,
			Seed:     11,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Completed {
			t.Fatalf("%s under %s did not complete (%d/%d ops)", wl, sch, pt.OpsFired, pt.OpsTotal)
		}
		return pt
	}
	for _, wl := range []string{"ring_allreduce", "all_to_all"} {
		upp := run(wl, SchemeUPP)
		comp := run(wl, SchemeComposable)
		rc := run(wl, SchemeRemoteControl)
		if upp.FinishCycle > comp.FinishCycle {
			t.Errorf("%s: UPP finishes at %d, after composable's %d", wl, upp.FinishCycle, comp.FinishCycle)
		}
		if rc.InjectionHolds == 0 {
			t.Errorf("%s: remote control reports zero injection holds — the gate is not engaging", wl)
		}
	}
	if a2a := run("all_to_all:flits=10", SchemeUPP); a2a.Upward == 0 {
		t.Error("large all-to-all under UPP never selected an upward packet — the closed loop is not stressing recovery")
	}
}
