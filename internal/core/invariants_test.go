package core_test

import (
	"fmt"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// findBusyLeaks returns descriptions of (router, outport, vc) whose Busy
// flag is set while the downstream VC is idle+empty+fully credited.
func findBusyLeaks(n *network.Network) []string {
	var leaks []string
	for _, node := range n.Topo.Nodes {
		r := n.Router(node.ID)
		nvc := r.Cfg.NumVCs()
		for pi := 1; pi < len(node.Ports); pi++ {
			p := topology.PortID(pi)
			nb := node.Ports[pi].Neighbor
			nbPort := node.Ports[pi].NeighborPort
			dr := n.Router(nb)
			for vi := 0; vi < nvc; vi++ {
				if !r.Out[p].Busy[vi] {
					continue
				}
				dvc := dr.VCAt(nbPort, vi)
				if dvc.State == router.VCIdle && dvc.Empty() && r.Out[p].Credits[vi] == int16(dr.Cfg.BufferDepth) {
					leaks = append(leaks, fmt.Sprintf("node%d out[%d](%s)->node%d vc%d", node.ID, pi, node.Ports[pi].Dir, nb, vi))
				}
			}
		}
	}
	return leaks
}

func TestFindLeakCycle(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	u := core.New(core.DefaultConfig())
	n := network.MustNew(topo, cfg, u)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
	prev := map[string]bool{}
	for i := 0; i < 30000; i++ {
		g.Tick(n.Cycle())
		n.Step()
		if i%50 == 0 {
			cur := map[string]bool{}
			for _, l := range findBusyLeaks(n) {
				cur[l] = true
				if prev[l] {
					t.Fatalf("cycle %d: persistent busy leak: %s", n.Cycle(), l)
				}
			}
			prev = cur
		}
	}
	t.Log("no persistent leaks in 30k cycles")
}
