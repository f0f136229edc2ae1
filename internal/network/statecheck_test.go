package network_test

import (
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestStateChecksExactAtScale holds CheckConservation and CheckQuiescent
// to the same strength on 80, 2048 and 8192 routers: both pass through a
// loaded run and after a drain, and both report one credit dropped on a
// link between two retired routers — the stale imbalance that nothing
// live would ever touch again.
func TestStateChecksExactAtScale(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"baseline", func() (*topology.Topology, error) { return topology.Build(topology.BaselineConfig()) }},
		{"large", func() (*topology.Topology, error) { return topology.BuildScale(topology.ScaleLargeConfig()) }},
		{"huge", func() (*topology.Topology, error) { return topology.BuildScale(topology.ScaleHugeConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			n := network.MustNew(topo, network.DefaultConfig(), network.None{})
			g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.01, 5)
			for i := 0; i < 300; i++ {
				g.Tick(n.Cycle())
				n.Step()
				if i%100 == 99 {
					if err := n.CheckConservation(); err != nil {
						t.Fatalf("cycle %d: %v", i, err)
					}
				}
			}
			if n.Stats.InjectedFlits == 0 {
				t.Fatal("no traffic injected")
			}
			g.SetRate(0)
			if err := n.Drain(100000, 20000); err != nil {
				t.Fatal(err)
			}
			n.Run(10)
			if err := n.CheckConservation(); err != nil {
				t.Fatalf("after drain: %v", err)
			}
			if err := n.CheckQuiescent(); err != nil {
				t.Fatalf("after drain: %v", err)
			}

			awake := map[topology.NodeID]bool{}
			for _, id := range n.AwakeRouterIDs() {
				awake[topology.NodeID(id)] = true
			}
			node, port := retiredLink(topo, awake)
			if node == nil {
				t.Fatal("no link with both routers retired")
			}
			n.Routers[node.ID].OutCredits(topology.PortID(port))[0]--
			if err := n.CheckConservation(); err == nil {
				t.Errorf("CheckConservation missed a credit dropped on node%d.out[%d].vc0", node.ID, port)
			}
			if err := n.CheckQuiescent(); err == nil {
				t.Errorf("CheckQuiescent missed a credit dropped on node%d.out[%d].vc0", node.ID, port)
			}
		})
	}
}

// retiredLink returns the first out-link (node, port) whose two routers
// are both absent from awake, or a nil node.
func retiredLink(topo *topology.Topology, awake map[topology.NodeID]bool) (*topology.Node, int) {
	for i := range topo.Nodes {
		node := &topo.Nodes[i]
		for pi := 1; pi < len(node.Ports); pi++ {
			if !awake[node.ID] && !awake[node.Ports[pi].Neighbor] {
				return node, pi
			}
		}
	}
	return nil, 0
}
