package router

import (
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// allocVOQ is the virtual-output-queued switch allocator. Physical
// buffering is identical to the input-queued design (same VCs, same
// depths, same credits — LayoutFor gives it the full budget at the
// inputs), but instead of each input port nominating a single VC and
// head-of-line losers blocking the whole port, every output port searches
// all input (port, VC) heads bound for it and grants one. Outputs are
// served in ascending port order, which puts the local ejection port first
// — the cheap consumption-first avoidance lever of arXiv 2303.10526: when
// ejection can proceed it is never starved by through-traffic contending
// for the same input port.
//
// Per output, inputs are tried round-robin after the last grant, each
// offering the VC pickVC finds bound for that output. One grant per output
// and per input port per cycle keeps the crossbar model identical to the
// input-queued router; only the matching differs.
func (r *Router) allocVOQ(cycle sim.Cycle) {
	if r.buffered == 0 {
		return
	}
	nports := len(r.In)
	var inputUsed uint32
	for oi := 0; oi < nports; oi++ {
		if r.outClaimedAt[oi] > cycle || r.downOut&(1<<uint(oi)) != 0 {
			continue
		}
		out := &r.Out[oi]
		pi := out.rr
		for k := 0; k < nports; k++ {
			if pi++; pi >= nports {
				pi = 0
			}
			if inputUsed&(1<<uint(pi)) != 0 || r.inClaimedAt[pi] > cycle || r.In[pi].buffered == 0 {
				continue
			}
			vi := r.pickVC(topology.PortID(pi), 1<<uint(oi), cycle)
			if vi < 0 {
				continue
			}
			r.Stats.SARequests++
			r.grant(topology.PortID(pi), vi, cycle)
			out.rr = pi
			inputUsed |= 1 << uint(pi)
			break
		}
	}
}
