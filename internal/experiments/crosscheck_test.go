package experiments

import (
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestEverySchemeEveryPatternDrains is the cross-product liveness check:
// all three schemes under all four synthetic patterns, pushed past
// saturation, must deliver every packet and return every resource. This is
// the single strongest guard against a scheme that works only on the
// pattern it was debugged with.
func TestEverySchemeEveryPatternDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product stress")
	}
	for _, sch := range ComparedSchemes() {
		for _, pat := range traffic.Patterns() {
			topo := topology.MustBuild(topology.BaselineConfig())
			scheme, err := cachedScheme(topology.BaselineConfig(), sch, topo)
			if err != nil {
				t.Fatal(err)
			}
			n := network.MustNew(topo, network.DefaultConfig(), scheme)
			g := traffic.NewGenerator(n, pat, 0.09, 7)
			g.Run(10000)
			g.SetRate(0)
			if err := n.Drain(600000, 60000); err != nil {
				t.Fatalf("%s under %s: %v", sch, pat.Name(), err)
			}
			if err := n.CheckQuiescent(); err != nil {
				t.Fatalf("%s under %s: %v", sch, pat.Name(), err)
			}
		}
	}
}
