package composable_test

import (
	"testing"

	"uppnoc/internal/composable"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

func TestBuildTablesBaseline(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	tb, err := composable.BuildTables(topo)
	if err != nil {
		t.Fatalf("BuildTables: %v", err)
	}
	if len(tb.Restrictions) == 0 {
		t.Fatal("no restrictions placed — the unrestricted CDG should be cyclic")
	}
	for _, turn := range tb.Restrictions {
		if topo.Node(turn.Node).Kind != topology.BoundaryRouter {
			t.Fatalf("restriction at non-boundary router %d", turn.Node)
		}
	}
	t.Logf("placed %d boundary turn restrictions", len(tb.Restrictions))
	// Full connectivity and loop-freedom of every pair.
	for _, src := range topo.Cores() {
		for _, dst := range topo.Cores() {
			if src == dst {
				continue
			}
			if _, err := tb.PathLength(src, dst); err != nil {
				t.Fatalf("path %d->%d: %v", src, dst, err)
			}
		}
	}
}

func TestComposableDeadlockFreeUnderLoad(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	s, err := composable.BuildTables(topo)
	if err != nil {
		t.Fatalf("BuildTables: %v", err)
	}
	n := network.MustNew(topo, network.DefaultConfig(), s)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
	g.Run(20000)
	g.SetRate(0)
	if err := n.Drain(600000, 60000); err != nil {
		t.Fatalf("composable wedged (restriction search is broken): %v", err)
	}
}

func TestComposablePathsLongerOnAverage(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	tb, err := composable.BuildTables(topo)
	if err != nil {
		t.Fatalf("BuildTables: %v", err)
	}
	// Composable's restricted routes must be at least as long as minimal
	// hop distance, and strictly longer for some pairs (the non-minimal
	// routing cost of Sec. III-B).
	longer := 0
	for _, src := range topo.Cores() {
		for _, dst := range topo.Cores() {
			if src == dst {
				continue
			}
			got, err := tb.PathLength(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			min := minimalHops(topo, src, dst)
			if got < min {
				t.Fatalf("path %d->%d shorter than minimal: %d < %d", src, dst, got, min)
			}
			if got > min {
				longer++
			}
		}
	}
	t.Logf("%d pairs routed non-minimally", longer)
	if longer == 0 {
		t.Fatal("expected some non-minimal routes under turn restrictions")
	}
}

// minimalHops is unrestricted BFS hop distance.
func minimalHops(t *topology.Topology, src, dst topology.NodeID) int {
	dist := make(map[topology.NodeID]int)
	queue := []topology.NodeID{src}
	dist[src] = 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if c == dst {
			return dist[c]
		}
		n := t.Node(c)
		for pi := 1; pi < len(n.Ports); pi++ {
			nb := n.Ports[pi].Neighbor
			if _, ok := dist[nb]; !ok {
				dist[nb] = dist[c] + 1
				queue = append(queue, nb)
			}
		}
	}
	return -1
}

// TestHeteroSearch: the search must handle heterogeneous systems too.
func TestHeteroSearch(t *testing.T) {
	topo, err := topology.BuildHetero(topology.HeteroExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := composable.BuildTables(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range topo.Cores()[:10] {
		for _, dst := range topo.Cores() {
			if src == dst {
				continue
			}
			if _, err := tb.PathLength(src, dst); err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
		}
	}
}
