package topology

import (
	"fmt"
	"testing"
)

// injectDuplicateVerticalLink wires a second, duplicate vertical link
// between the first chiplet's first boundary router and the interposer
// router already under it. The mesh-direction check cannot see it: Up/Down
// ports are exempt from the unique-mesh-direction rule.
func injectDuplicateVerticalLink(t *Topology) {
	b := t.Chiplets[0].Boundary[0]
	ip := t.InterposerUnder(b)
	t.addLink(ip, b, Up)
	t.finish()
}

// TestValidateCatchesDuplicateLink pins that Validate is exact at every
// size: a duplicated vertical link fails it on the 80-router baseline and
// on the 2048-router scale system alike, in every build.
func TestValidateCatchesDuplicateLink(t *testing.T) {
	for _, topo := range []*Topology{MustBuild(BaselineConfig()), MustBuildScale(ScaleLargeConfig())} {
		name := fmt.Sprintf("%d routers", topo.NumNodes())
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: fresh topology fails Validate: %v", name, err)
		}
		injectDuplicateVerticalLink(topo)
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a duplicate vertical link", name)
		}
	}
}
