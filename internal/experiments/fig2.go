package experiments

import (
	"fmt"

	"uppnoc/internal/composable"
	"uppnoc/internal/topology"
)

// Fig2 reproduces the spirit of the paper's Fig. 2(a): the unidirectional
// turn restrictions the composable-routing design-time search places on
// each chiplet's boundary routers. (The exact set differs from the paper's
// illustration — the search is a heuristic — but the character matches:
// a handful of vertical-link turns forbidden per chiplet, which is what
// costs composable routing its path diversity.)
func Fig2(opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "fig2",
		Title:  "Composable routing: boundary-router turn restrictions found by the design-time search",
		Header: []string{"chiplet", "boundary_router", "restricted_turn"},
	}
	cfg := topology.BaselineConfig()
	topo := topology.MustBuild(cfg)
	opts.Progress.log("fig2: running the restriction search")
	// The process-wide cache: the sweeps' composable runs on the baseline
	// reuse this search instead of running it again.
	s, err := cachedScheme(cfg, SchemeComposable, topo)
	if err != nil {
		return nil, err
	}
	tb := s.(*composable.Tables)
	for _, turn := range tb.Restrictions {
		n := topo.Node(turn.Node)
		t.AddRow(
			fmt.Sprintf("%d", n.Chiplet),
			fmt.Sprintf("%d (%d,%d)", turn.Node, n.X, n.Y),
			fmt.Sprintf("%s -> %s", n.Ports[turn.In].Dir, n.Ports[turn.Out].Dir),
		)
	}
	t.Notes = []string{
		fmt.Sprintf("%d unidirectional restrictions placed (the paper's illustration shows 8 per chiplet pattern)", len(tb.Restrictions)),
		"every restriction sits on a boundary router — the modularity requirement of composable routing",
	}
	return []Table{t}, nil
}
