package network

import (
	"fmt"

	"uppnoc/internal/topology"
)

// CheckConservation verifies the credit/buffer conservation law on every
// link at any instant, not just at quiescence:
//
//	upstream credits + credit events in flight
//	  + upstream staged flits (output-queued variants)
//	  + downstream buffered flits + flit events in flight  == buffer depth
//
// for every (output port, VC). A violation means a flit or credit was
// duplicated or dropped — the class of bug that silently corrupts
// throughput results long before anything visibly breaks. Stress tests
// call this every few hundred cycles.
//
// Output-queued routers consume the downstream credit when they stage a
// flit, so flits sitting in a staging FIFO hold credits the same way
// flits in flight do — StagedFor supplies that term (zero for iq/voq).
//
// Flits moved out-of-band by schemes (popup latches, boundary buffers)
// have already returned their buffer slot via PopFront's credit, so they
// do not appear in the equation.
//
// Every link is checked at every size, and every router's upward census
// is held to a recount from its VCs.
func (n *Network) CheckConservation() error {
	nvc := n.Cfg.Router.NumVCs()

	// Tally in-flight events by destination.
	type key struct {
		node topology.NodeID
		port topology.PortID
		vc   int8
	}
	flitsInFlight := map[key]int{}
	creditsInFlight := map[key]int{}
	n.flush()
	for s := range n.wheel {
		for i := range n.wheel[s] {
			e := &n.wheel[s][i]
			switch e.kind {
			case evFlit:
				flitsInFlight[key{e.to, e.port, e.vc}]++
			case evCredit:
				creditsInFlight[key{e.to, e.port, e.vc}] += int(e.delta)
			}
		}
	}

	for i := range n.Topo.Nodes {
		node := &n.Topo.Nodes[i]
		r := n.Routers[i]
		for pi := 1; pi < len(node.Ports); pi++ {
			pt := &node.Ports[pi]
			down := n.Routers[pt.Neighbor]
			// The law balances against the downstream input VC's actual
			// depth (the effective config, not the budget config).
			depth := down.Cfg.BufferDepth
			for vi := 0; vi < nvc; vi++ {
				credits := int(r.Out[pi].Credits[vi])
				staged := r.StagedFor(topology.PortID(pi), vi)
				buffered := down.VCAt(pt.NeighborPort, vi).Len()
				inFlight := flitsInFlight[key{pt.Neighbor, pt.NeighborPort, int8(vi)}]
				creditBack := creditsInFlight[key{node.ID, topology.PortID(pi), int8(vi)}]
				total := credits + staged + buffered + inFlight + creditBack
				if total != depth {
					return fmt.Errorf(
						"network: conservation violated on node%d.out[%d].vc%d -> node%d.in[%d]: credits %d + staged %d + buffered %d + flits-in-flight %d + credits-in-flight %d = %d, want %d",
						node.ID, pi, vi, pt.Neighbor, pt.NeighborPort,
						credits, staged, buffered, inFlight, creditBack, total, depth)
				}
			}
		}
		if got, want := r.UpRouted(), r.RecountUpRouted(); got != want {
			return fmt.Errorf("network: node %d upward census %v, recount from its VCs %v", i, got, want)
		}
	}
	return nil
}
