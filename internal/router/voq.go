package router

import (
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// VOQ is the virtual-output-queued router variant. Physical buffering is
// identical to the input-queued design (same VCs, same depths, same
// credits — LayoutFor gives it the full budget at the inputs), but switch
// allocation is virtual-output-queued: instead of each input port
// nominating a single VC and head-of-line losers blocking the whole port,
// every output port searches all input (port, VC) heads bound for it and
// grants one. Outputs are served in ascending port order, which puts the
// local ejection port first — the cheap consumption-first avoidance lever
// of arXiv 2303.10526: when ejection can proceed it is never starved by
// through-traffic contending for the same input port.
//
// Everything else — route computation, randomized downstream VC
// selection, credit flow, the plugin API, the Step concurrency contract —
// is inherited from the embedded input-queued router.
type VOQ struct {
	*Router
}

// NewVOQ constructs a virtual-output-queued router for node n.
func NewVOQ(n *topology.Node, cfg Config, sink EventSink, local LocalSink, route RouteFunc, rng *sim.RNG) *VOQ {
	return &VOQ{Router: New(n, cfg, sink, local, route, rng)}
}

// Arch implements Microarch.
func (q *VOQ) Arch() string { return ArchVOQ }

// Step runs one cycle of virtual-output-queued allocation: per output
// port (ascending, local ejection first), round-robin over input ports,
// searching each port's VCs for a head bound for that output. One grant
// per output and per input port per cycle keeps the crossbar model
// identical to the input-queued router; only the matching differs.
func (q *VOQ) Step(cycle sim.Cycle) {
	if q.buffered == 0 {
		return
	}
	nports := len(q.In)
	var inputUsed uint32
	for oi := 0; oi < nports; oi++ {
		if q.outClaimedAt[oi] > cycle || q.downOut&(1<<uint(oi)) != 0 {
			continue
		}
		out := &q.Out[oi]
		pi := out.rr
		for k := 0; k < nports; k++ {
			if pi++; pi >= nports {
				pi = 0
			}
			if inputUsed&(1<<uint(pi)) != 0 || q.inClaimedAt[pi] > cycle || q.In[pi].buffered == 0 {
				continue
			}
			vi := q.pickVCFor(topology.PortID(pi), topology.PortID(oi), cycle)
			if vi < 0 {
				continue
			}
			q.Stats.SARequests++
			q.grant(topology.PortID(pi), vi, cycle)
			out.rr = pi
			inputUsed |= 1 << uint(pi)
			break
		}
	}
}

// pickVCFor selects, round-robin, one VC of input port pi whose packet is
// bound for output oi and can use the crossbar this cycle. Eligibility
// rules match the input-queued pickInputVC (holds, popup bypass, route
// computation for fresh heads, credit checks); only the output filter is
// new.
func (q *VOQ) pickVCFor(pi, oi topology.PortID, cycle sim.Cycle) int {
	vcs := q.In[pi].VCs
	vi := q.inRR[pi]
	for range vcs {
		if vi++; vi >= len(vcs) {
			vi = 0
		}
		vc := &vcs[vi]
		if vc.Hold {
			// A scheme plugin owns this VC's draining.
			continue
		}
		f, ok := vc.FrontReady(cycle)
		if !ok {
			continue
		}
		if f.Pkt.Popup && int16(q.Node.Chiplet) == f.Pkt.DstChiplet {
			// Popup flits drain through the circuit inside the destination
			// chiplet (Sec. V-C), exactly as in the input-queued router.
			continue
		}
		if f.IsHead() && !vc.routed {
			q.routeHead(pi, vi, vc, f, cycle)
		}
		if vc.OutPort != oi {
			continue
		}
		switch vc.State {
		case VCWaiting:
			if q.fencedOut&(1<<uint(vc.OutPort)) != 0 {
				// The port is draining toward a permanent cut: no new
				// wormhole may start crossing (the head is migrated onto
				// the new routing by UnrouteFencedHeads).
				continue
			}
			if !q.headCanAdvance(vc, f, cycle) {
				continue
			}
		case VCActive:
			if vc.OutPort != topology.LocalPort && q.Out[vc.OutPort].Credits[vc.OutVC] <= 0 {
				continue
			}
		default:
			continue
		}
		q.inRR[pi] = vi
		return vi
	}
	return -1
}
