package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// TestRunReconfigAllToAllSoak is the acceptance soak: persistently kill
// two interposer links under closed-loop all-to-all load; the run must
// complete deadlock-free via reconfiguration, with delivered-path
// assertions (Soak enforces them for a persistent plan), and the outcome must be
// bit-identical under every UPP detection kernel.
func TestRunReconfigAllToAllSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	links, err := KillableInterposerLinks(topology.BaselineConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []string{network.KernelNaive, network.KernelActive, network.KernelParallel}
	var ref SoakOutcome
	for i, k := range kernels {
		out, err := Soak(SoakSpec{
			RunSpec: RunSpec{
				Topo:      topology.BaselineConfig(),
				Scheme:    SchemeUPP,
				Kernel:    k,
				FaultPlan: fmt.Sprintf("kill=%d@400,kill=%d@400", links[0], links[1]),
				Seed:      11,
				Workload:  "all_to_all:flits=2",
			},
			LoadCycles: 1600,
			DrainMax:   200000,
			StallLimit: 20000,
		})
		if err != nil {
			t.Fatalf("kernel %s: %v", k, err)
		}
		if !out.Quiesced {
			t.Fatalf("kernel %s: soak stalled: %s", k, out.Stall)
		}
		if out.Stats.LinksKilled != 2 {
			t.Fatalf("kernel %s: killed %d links, want 2", k, out.Stats.LinksKilled)
		}
		if len(out.Transitions) != 1 {
			t.Fatalf("kernel %s: %d transitions, want 1 (batched kills)", k, len(out.Transitions))
		}
		if len(out.Cuts) != 2 {
			t.Fatalf("kernel %s: %d cuts, want 2", k, len(out.Cuts))
		}
		if out.RoutesChanged == 0 {
			t.Fatalf("kernel %s: no interposer route changed after 2 kills", k)
		}
		if i == 0 {
			ref = out
			continue
		}
		if !reflect.DeepEqual(out, ref) {
			t.Fatalf("kernel %s diverged from %s:\n%+v\nvs\n%+v", k, kernels[0], out, ref)
		}
	}
}

// TestReconfigRunnerSmoke wires the -exp reconfig figure through the
// standard runner checks.
func TestReconfigRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second smoke")
	}
	ts, err := Reconfig(microDur, poolOpts)
	requireTables(t, ts, err, "reconfig")
}
