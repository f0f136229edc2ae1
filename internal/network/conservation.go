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
// Scaling: up to diagDeepMaxNodes nodes (or always under -tags uppdebug,
// or under the naive kernel, which keeps no awake set) every link is
// checked. Above that the scan is scoped to links with at least one
// engaged endpoint — an awake router or an in-flight event destination.
// The scoped scan still catches every violation involving live traffic,
// but can miss a stale imbalance parked between two long-retired routers
// (e.g. a credit dropped many cycles ago on a now-idle link); uppdebug
// restores the exhaustive walk at any size. The exhaustive walk also holds
// every router's upward census to a recount from its VCs.
// diagDeepMaxNodes is the system-size threshold above which the state
// diagnostics (CheckConservation, CheckQuiescent) drop their exhaustive
// every-port-every-VC walks in favour of scoped or reduced scans. The
// uppdebug build tag (diagDeepAlways) forces the exhaustive walks at any
// size; see each check's doc comment for what the reduced mode still
// guarantees.
const diagDeepMaxNodes = 1024

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

	full := diagDeepAlways || n.kernel == KernelNaive || len(n.Topo.Nodes) <= diagDeepMaxNodes
	var engaged map[topology.NodeID]bool
	if !full {
		engaged = make(map[topology.NodeID]bool, 2*n.routers.count)
		for id := n.routers.next(-1); id >= 0; id = n.routers.next(id) {
			engaged[id] = true
		}
		for s := range n.wheel {
			for i := range n.wheel[s] {
				engaged[n.wheel[s][i].to] = true
			}
		}
	}

	// checkNode verifies the law on every out-link of one node; in the
	// scoped mode a link is skipped only when both endpoints are retired
	// with nothing in flight toward either.
	checkNode := func(node *topology.Node) error {
		r := n.Routers[node.ID]
		for pi := 1; pi < len(node.Ports); pi++ {
			pt := &node.Ports[pi]
			if engaged != nil && !engaged[node.ID] && !engaged[pt.Neighbor] {
				continue
			}
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
		return nil
	}

	if full {
		for i := range n.Topo.Nodes {
			if err := checkNode(&n.Topo.Nodes[i]); err != nil {
				return err
			}
			if got, want := n.Routers[i].UpRouted(), n.Routers[i].RecountUpRouted(); got != want {
				return fmt.Errorf("network: node %d upward census %v, recount from its VCs %v", i, got, want)
			}
		}
		return nil
	}
	for id := range engaged {
		node := n.Topo.Node(id)
		if err := checkNode(node); err != nil {
			return err
		}
		// A retired upstream of an engaged node owns the credits for the
		// link into it — walk it too so inbound links are covered.
		for pi := 1; pi < len(node.Ports); pi++ {
			nb := node.Ports[pi].Neighbor
			if !engaged[nb] {
				if err := checkNode(n.Topo.Node(nb)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
