package router

import (
	"math/bits"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// The output-queued variant. Half of every input VC's depth (LayoutFor)
// moves to a per-output staging FIFO that the crossbar fills with full
// speedup: every input VC whose front flit is eligible advances in the
// same cycle, so a flit bound for a free output is never blocked behind
// one bound for a congested output (the switch-level HoL-blocking
// elimination of arXiv 2303.10526's OQ router class). Each output then
// drains its FIFO onto the link at one flit per cycle.
//
// Flow control: a downstream credit is consumed when the flit is staged
// (the staging write is the crossbar traversal), so conservation checks
// count staged flits against the link's credit pool (StagedFor). The
// link-side transmission — PortSent, LinkTravs, UpFlits, the UPP
// up-sent mask — happens at drain, when the flit actually leaves.
//
// Backpressured packets stall in the input VCs with their route computed,
// exactly like the input-queued router, so UPP's stalled-upward-packet
// detection, popup circuit (PopFront/ForceReleaseVC) and remote control's
// boundary absorption operate unchanged. Out-of-band plugin sends
// (SendOnOutput, SendDirect) bypass the staging FIFO by design.

// stagedFlit is one output-queued flit plus the downstream VC whose
// credit it already holds.
type stagedFlit struct {
	f     message.Flit
	outVC int8
}

// stageFIFO is a fixed-capacity ring of staged flits, preallocated so the
// steady-state loop stays allocation-free.
type stageFIFO struct {
	buf   []stagedFlit
	head  int
	count int
}

func (s *stageFIFO) push(sf stagedFlit) {
	if s.count == len(s.buf) {
		panic("router: staging FIFO overflow (oq space check bypassed)")
	}
	s.buf[(s.head+s.count)%len(s.buf)] = sf
	s.count++
}

func (s *stageFIFO) pop() stagedFlit {
	sf := s.buf[s.head]
	s.buf[s.head] = stagedFlit{}
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	return sf
}

// at returns the i-th staged flit in FIFO order.
func (s *stageFIFO) at(i int) *stagedFlit { return &s.buf[(s.head+i)%len(s.buf)] }

// StagedFor counts flits staged at output p bound for downstream VC vc —
// their credit is already consumed, so conservation checks add this term.
// Zero for variants without output staging.
func (r *Router) StagedFor(p topology.PortID, vc int) int {
	cnt := 0
	for i := 0; i < r.StagedCount(p); i++ {
		if int(r.stage[p].at(i).outVC) == vc {
			cnt++
		}
	}
	return cnt
}

// StagedCount counts all flits staged at output p.
func (r *Router) StagedCount(p topology.PortID) int {
	if r.stage == nil {
		return 0
	}
	return r.stage[p].count
}

// ScanStaged calls fn for every staged flit (debug audits).
func (r *Router) ScanStaged(fn func(message.Flit)) {
	for pi := range r.stage {
		s := &r.stage[pi]
		for i := 0; i < s.count; i++ {
			fn(s.at(i).f)
		}
	}
}

// stageFlit is oq's crossbar traversal: it consumes f's downstream credit
// and writes it into the staging FIFO of output out.
func (r *Router) stageFlit(out topology.PortID, outVC int8, f message.Flit) {
	r.takeCredit(out, outVC)
	r.stage[out].push(stagedFlit{f: f, outVC: outVC})
	r.staged++
	r.Stats.BufferWrites++
}

// allocOQ runs one output-queued cycle: drain one staged flit per output
// onto its link, then move every eligible input-VC front through the
// crossbar into its output's FIFO (full speedup; local ejections go
// straight to the NI).
func (r *Router) allocOQ(cycle sim.Cycle) {
	// Output drain. Plugin claims (UPP popup circuits, signal hops) and
	// down links pause the port; claiming it ourselves keeps the link at
	// one flit per cycle against same-cycle out-of-band senders. room
	// collects the outputs the crossbar may write this cycle: the local
	// port, which has no FIFO, and every output whose FIFO has a free slot.
	// Input claims are read before the drain raises claimedAt with its own.
	inClaimed, _ := r.claimed(cycle)
	room := uint32(1) << topology.LocalPort
	for oi := 1; oi < len(r.stage); oi++ {
		st := &r.stage[oi]
		if st.count > 0 && r.downOut&(1<<uint(oi)) == 0 && r.ClaimOutput(topology.PortID(oi), cycle) {
			sf := st.pop()
			r.staged--
			r.Stats.BufferReads++
			r.transmit(topology.PortID(oi), sf.outVC, sf.f, cycle)
		}
		if st.count < len(st.buf) {
			room |= 1 << uint(oi)
		}
	}
	if r.buffered == 0 {
		return
	}
	// Input stage: every eligible VC front moves, and every routed front
	// counts as a request whether or not it can. A grant clears at most the
	// mask bits of the port and VC it serves, which both walks have passed.
	for in := r.occ &^ inClaimed; in != 0; in &= in - 1 {
		pi := bits.TrailingZeros32(in)
		for m := r.ports[pi].vcMask; m != 0; m &= m - 1 {
			vi := bits.TrailingZeros64(m)
			req := r.requestOf(topology.PortID(pi), vi, room, cycle)
			if req == noRequest {
				continue
			}
			r.Stats.SARequests++
			if req != eligible {
				continue
			}
			out := r.VCAt(topology.PortID(pi), vi).OutPort
			r.grant(topology.PortID(pi), vi, cycle)
			if st := &r.stage[out]; out != topology.LocalPort && st.count == len(st.buf) {
				room &^= 1 << uint(out)
			}
		}
	}
}
