package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uppnoc/internal/network"
)

// TestRouterCompareGolden is the acceptance gate for the router
// microarchitecture comparison: regenerating the router_compare table
// must byte-match the committed results/router_compare.csv under every
// cycle kernel and at one and four sweep workers. Kernel invariance here
// proves the oq and voq Step implementations honor the shard concurrency
// contract the same way the iq pipeline does; a mismatch means either a
// behavior change (regenerate with `make router-golden`) or a
// determinism break (fix the code).
func TestRouterCompareGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	wantBytes, err := os.ReadFile(filepath.Join("..", "..", "results", "router_compare.csv"))
	if err != nil {
		t.Fatalf("committed golden missing (regenerate with `make router-golden`): %v", err)
	}
	want := string(wantBytes)
	for _, kernel := range []string{network.KernelActive, network.KernelNaive, network.KernelParallel} {
		for _, jobs := range []int{1, 4} {
			t.Run(kernel+"_jobs"+string(rune('0'+jobs)), func(t *testing.T) {
				t.Setenv("UPP_KERNEL", kernel)
				t.Setenv("UPP_CACHE_DIR", "") // simulate under the kernel, not read a result
				tb := tableByID(t, "router_compare", PoolOptions{Jobs: jobs})
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

// TestRouterCompareCompletes pins the qualitative acceptance claim: the
// oq and voq variants complete every router-comparison workload
// deadlock-free under all three schemes (completed=true on every row of
// the table), and the large all-to-all exercises UPP recovery on the oq
// datapath (its staging changes packing enough to need more popups than
// iq, not fewer).
func TestRouterCompareCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	var uppOQPopups string
	for _, row := range tableByID(t, "router_compare", PoolOptions{Jobs: 4}).Rows {
		if row[4] != "true" {
			t.Errorf("%s under %s on %s did not complete", row[0], row[1], row[2])
		}
		if row[0] == "all_to_all:flits=10" && row[1] == "upp" && row[2] == "oq" {
			uppOQPopups = row[9]
		}
	}
	if uppOQPopups == "" || uppOQPopups == "0" {
		t.Errorf("large all-to-all under UPP on oq completed %q popups — recovery path untested on the oq datapath", uppOQPopups)
	}
}
