package experiments

import "testing"

// TestRouterCompareGolden is the acceptance gate for the router
// microarchitecture comparison (goldenTable on results/router_compare.csv).
// Kernel invariance here proves the oq and voq Step implementations honor
// the shard concurrency contract the same way the iq pipeline does.
//
// Its "completes" subtest pins the qualitative acceptance claim: the oq
// and voq variants complete every router-comparison workload
// deadlock-free under all three schemes (completed=true on every row of
// the table), and the large all-to-all exercises UPP recovery on the oq
// datapath (its staging changes packing enough to need more popups than
// iq, not fewer).
func TestRouterCompareGolden(t *testing.T) {
	goldenTable(t, "router_compare", "router-golden", routerCompareCompletes)
}

func routerCompareCompletes(t *testing.T, tb Table) {
	var uppOQPopups string
	for _, row := range tb.Rows {
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
