package core

import (
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// TestHostsMatchTopology: the bitset detection and OnRouterIdle filter on
// names exactly the interposer routers with an Up port — a missing host
// would never be scanned for stalled upward packets, an extra one would be
// scanned for nothing.
func TestHostsMatchTopology(t *testing.T) {
	small, err := topology.BuildScale(topology.ScaleSmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*topology.Topology{topology.MustBuild(topology.BaselineConfig()), small} {
		u := New(DefaultConfig())
		network.MustNew(topo, network.DefaultConfig(), u)
		hosts := 0
		for i := range topo.Nodes {
			node := &topo.Nodes[i]
			want := node.Chiplet == topology.InterposerChiplet && node.PortTo(topology.Up) != topology.InvalidPort
			if u.host(node.ID) != want {
				t.Errorf("%d-node system: host(%d) = %v, topology says %v", topo.NumNodes(), node.ID, u.host(node.ID), want)
			}
			if want {
				hosts++
			}
		}
		if hosts == 0 {
			t.Errorf("%d-node system has no host routers", topo.NumNodes())
		}
	}
}
