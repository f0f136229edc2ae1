package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// topologyDigest hashes every structural field a builder decides: each
// node's ID, kind, chiplet, coordinates and bound boundary router, each
// port's direction, neighbour, neighbour port and link ID, and each link's
// ID, endpoints, endpoint ports and vertical flag.
func topologyDigest(t *Topology) string {
	h := sha256.New()
	for i := range t.Nodes {
		n := &t.Nodes[i]
		fmt.Fprintln(h, "node", n.ID, n.Kind, n.Chiplet, n.X, n.Y, n.BoundBoundary)
		for pi := range n.Ports {
			p := &n.Ports[pi]
			link := -1
			if p.Link != nil {
				link = p.Link.ID
			}
			fmt.Fprintln(h, "port", p.Dir, p.Neighbor, p.NeighborPort, link)
		}
	}
	for _, l := range t.Links {
		fmt.Fprintln(h, "link", l.ID, l.A, l.B, l.APort, l.BPort, l.Vertical)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTopologyGolden pins the exact structure every builder produces —
// node numbering, port order, link IDs, boundary placement, vertical-link
// attachment (spread and round-robin) and the static binding — for the
// paper's systems, the scale presets and the heterogeneous example. Any
// change to construction order shows up here as a changed digest.
func TestTopologyGolden(t *testing.T) {
	crowded := StarConfig()
	crowded.BoundaryPerChiplet = 4 // four up links onto a one-router region
	b2, b8 := BaselineConfig(), BaselineConfig()
	b2.BoundaryPerChiplet, b8.BoundaryPerChiplet = 2, 8
	build := func(sys SystemConfig) func() (*Topology, error) {
		return func() (*Topology, error) { return Build(sys) }
	}
	scale := func(c ScaleConfig) func() (*Topology, error) {
		return func() (*Topology, error) { return BuildScale(c) }
	}
	cases := []struct {
		name  string
		build func() (*Topology, error)
		want  string
	}{
		{"baseline", build(BaselineConfig()), "e78462b7498ba7a798ae2cd6f6bb235552d24820318f281ed065a4dab7f5bc7d"},
		{"large", build(LargeConfig()), "02571f955a2eb66466d4a0ec8c51b797a289e7b0e2124b8e054b1d9be473e08e"},
		{"star", build(StarConfig()), "77a1b1fa8ceb77a2b75dc0e04a015c5bb5e67766c9efd3d547128367480ceadb"},
		{"star_4_boundaries", build(crowded), "ca414adf210f4611aa3b5df485bb7b54dc17ee7df0b21ba66972dbf7c508a5ad"},
		{"baseline_2_boundaries", build(b2), "0a2963747fbc4153af1d72313338731678311b948c29ae8bd5c8ee56a6bb425b"},
		{"baseline_8_boundaries", build(b8), "165e056f926a4f1940cf3fc80cf49c856d23a94ab68be3facec5a5b774e21d63"},
		{"scale_small", scale(ScaleSmallConfig()), "945207f4061135acd2abb0d9a6e8dc67a9465fe9739bcb20bf061bbf40d0eb36"},
		{"scale_large", scale(ScaleLargeConfig()), "83664cb8b0f7324ec52c8483971c7aa4ff44149662b6a9a323d4becefb66df7e"},
		{"scale_huge", scale(ScaleHugeConfig()), "d1ee54a0bbac955f4cbe71b7dd202d14051da442b6d44ce2260bb9d25c75cb24"},
		{"hetero_example", func() (*Topology, error) { return BuildHetero(HeteroExampleConfig()) }, "e8c501fed3c08114fcc69f5ab4ad63bab41846d664dfdbba35fe3c342805e3c5"},
	}
	for _, tc := range cases {
		topo, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := topologyDigest(topo); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
