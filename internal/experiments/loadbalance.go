package experiments

import (
	"fmt"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// BoundaryLoad is one boundary router's vertical-link reading: the flits
// its down link carried to the interposer.
type BoundaryLoad struct {
	Chiplet int
	Router  topology.NodeID
	Flits   uint64
}

// downLinks reads every boundary router's down-link flits since cycle 0,
// chiplet by chiplet in Chiplet.Boundary order.
func downLinks(n *network.Network) *[]BoundaryLoad {
	var loads []BoundaryLoad
	for _, ch := range n.Topo.Chiplets {
		for _, b := range ch.Boundary {
			down := n.Topo.Node(b).PortTo(topology.Down)
			loads = append(loads, BoundaryLoad{Chiplet: ch.Index, Router: b, Flits: n.Router(b).PortSent(down)})
		}
	}
	return &loads
}

// loadBalanceTables measures Sec. III-B's argument that composable
// routing's turn restrictions unbalance the boundary routers while UPP's
// static binding spreads the load. Per scheme: the down-link flits, their
// imbalance — max/mean flits per down link within each chiplet, averaged
// over chiplets; 1.0 is perfect balance — and the busiest link's share of
// its chiplet's egress; then every boundary router's flits.
func loadBalanceTables(cs []swept) ([]Table, error) {
	t := Table{
		ID:     "load_balance",
		Title:  "Vertical-link load balance per scheme (uniform random, sub-saturation)",
		Header: []string{"scheme", "vcs", "total_down_flits", "imbalance_max_over_mean", "busiest_link_share"},
		Notes: []string{
			"paper Sec. III-B: composable routing concentrates inter-chiplet traffic on few boundary routers; UPP and remote control balance it",
		},
	}
	detail := Table{
		ID:     "load_balance_detail",
		Title:  "Per-boundary-router down-link flits",
		Header: []string{"scheme", "chiplet", "boundary_router", "down_flits"},
	}
	for _, c := range cs {
		var loads []BoundaryLoad
		if p := c.Points[0]; p.DownLinks != nil {
			loads = *p.DownLinks
		}
		var total uint64
		var imbalanceSum, worstShare float64
		chiplets := 0
		for i := 0; i < len(loads); chiplets++ {
			var chTotal, chMax uint64
			j := i
			for ; j < len(loads) && loads[j].Chiplet == loads[i].Chiplet; j++ {
				chTotal += loads[j].Flits
				chMax = max(chMax, loads[j].Flits)
				detail.AddRowf(string(c.Spec.Scheme), loads[j].Chiplet, loads[j].Router, loads[j].Flits)
			}
			total += chTotal
			if chTotal > 0 {
				imbalanceSum += float64(chMax) / (float64(chTotal) / float64(j-i))
				worstShare = max(worstShare, float64(chMax)/float64(chTotal))
			}
			i = j
		}
		imbalance := 0.0
		if chiplets > 0 {
			imbalance = imbalanceSum / float64(chiplets)
		}
		t.AddRowf(string(c.Spec.Scheme), c.Spec.VCsPerVNet, total, fmt.Sprintf("%.2f", imbalance), fmt.Sprintf("%.0f%%", 100*worstShare))
	}
	return []Table{t, detail}, nil
}
