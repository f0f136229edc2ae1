package topology

import "testing"

// injectDuplicateVerticalLink wires a second, duplicate vertical link
// between the first chiplet's first boundary router and the interposer
// router already under it — the defect the deep duplicate-link scan
// exists to catch. The fast per-node checks cannot see it: Up/Down ports
// are exempt from the unique-mesh-direction rule.
func injectDuplicateVerticalLink(t *Topology) {
	b := t.Chiplets[0].Boundary[0]
	ip := t.InterposerUnder(b)
	t.addLink(ip, b, Up, true)
	t.finish()
}

// TestValidateCatchesDuplicateLinkSmall pins that below the gate threshold
// the deep scan always runs: a duplicated vertical link in the 80-node
// baseline system fails Validate in every build mode.
func TestValidateCatchesDuplicateLinkSmall(t *testing.T) {
	topo := MustBuild(BaselineConfig())
	if len(topo.Nodes) > validateDeepMaxNodes {
		t.Fatalf("baseline has %d nodes, expected <= %d", len(topo.Nodes), validateDeepMaxNodes)
	}
	injectDuplicateVerticalLink(topo)
	if err := topo.Validate(); err == nil {
		t.Fatal("Validate accepted a duplicate vertical link below the gate threshold")
	}
}
