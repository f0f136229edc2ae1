package core

import (
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestHostsMatchTopology: the host bitset that detection filters on names
// exactly the interposer routers with an Up port — a missing host would
// never be scanned for stalled upward packets, an extra one would be
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

// TestWokenHostCountersZero: retirement resets nothing, so a retired host
// keeps the counts of its last scan until a flit wakes it. The flit is not
// ready before the next cycle (Router.ReceiveFlit), so the scan of the wake
// cycle finds no stalled head and zeroes every counter of a VNet with no
// popup — what the oracle's scan of the empty router did every cycle. The
// workload is TestWakeInvariant's, and the test fails unless some wake
// starts from a stale nonzero counter, the case the argument is about.
func TestWokenHostCountersZero(t *testing.T) {
	for _, kernel := range []string{network.KernelActive, network.KernelParallel} {
		cfg := network.DefaultConfig()
		cfg.Kernel = kernel
		cfg.Adaptive = true
		u := New(DefaultConfig())
		n := network.MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, u)
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.12, 33)
		// counted reports whether host id holds a nonzero counter of a
		// VNet with no popup.
		counted := func(id int32) bool {
			ns := &u.nodes[id]
			for v, c := range ns.counters {
				if c != 0 && ns.entry[v] == nil {
					return true
				}
			}
			return false
		}
		awake := make([]bool, len(u.nodes))
		stale := make([]bool, len(u.nodes))
		staleWakes := 0
		for i := 0; i < 6000; i++ {
			for id := range u.nodes {
				stale[id] = !awake[id] && u.host(topology.NodeID(id)) && counted(int32(id))
			}
			g.Tick(n.Cycle())
			n.Step()
			now := n.AwakeRouterIDs()
			for _, id := range now {
				if awake[id] || !u.host(topology.NodeID(id)) {
					continue
				}
				if counted(id) {
					t.Fatalf("%s, cycle %d: host %d woke with counters %v", kernel, n.Cycle()-1, id, u.nodes[id].counters)
				}
				if stale[id] {
					staleWakes++
				}
			}
			clear(awake)
			for _, id := range now {
				awake[id] = true
			}
		}
		if staleWakes == 0 {
			t.Fatalf("%s: no host woke from a stale nonzero counter; the test checks nothing", kernel)
		}
	}
}
