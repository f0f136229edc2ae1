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
// Per output, the unclaimed, unmatched inputs holding a flit are tried
// round-robin after the last grant, each offering the VC pickVC finds bound
// for that output. One grant per output
// and per input port per cycle keeps the crossbar model identical to the
// input-queued router; only the matching differs.
func (r *Router) allocVOQ(cycle sim.Cycle) {
	if r.buffered == 0 {
		return
	}
	inClaimed, outClaimed := r.claimed(cycle)
	// unmatched is the inputs that may still be granted this cycle.
	unmatched := ^inClaimed
	for oi := range r.ports {
		if (outClaimed|r.downOut)&(1<<uint(oi)) != 0 {
			continue
		}
		out := &r.ports[oi]
		for in := uint64(r.occ & unmatched); in != 0; {
			pi := rrPick(in, int(out.outRR))
			in &^= 1 << uint(pi)
			vi := r.pickVC(topology.PortID(pi), 1<<uint(oi), cycle)
			if vi < 0 {
				continue
			}
			r.Stats.SARequests++
			r.grant(topology.PortID(pi), vi, cycle)
			out.outRR = int8(pi)
			unmatched &^= 1 << uint(pi)
			break
		}
	}
}
