package router

import (
	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// OQ is the output-queued router variant. Half of every input VC's depth
// (LayoutFor) moves to a per-output staging FIFO that the crossbar fills
// with full speedup: every input VC whose front flit is eligible advances
// in the same cycle, so a flit bound for a free output is never blocked
// behind one bound for a congested output (the switch-level HoL-blocking
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
type OQ struct {
	*Router
	stage []stageFIFO
	// staged counts flits across all staging FIFOs; Idle/Buffered fold it
	// in so the kernels keep stepping a router that only has output work.
	staged int
}

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

// NewOQ constructs an output-queued router for node n. cfg is the budget
// configuration; lay (from LayoutFor) gives the reduced input depth and
// the per-output staging capacity carved out of the same budget.
func NewOQ(n *topology.Node, cfg Config, lay BufferLayout, sink EventSink, local LocalSink, route RouteFunc, rng *sim.RNG) *OQ {
	eff := cfg
	eff.BufferDepth = lay.InputDepth
	q := &OQ{
		Router: New(n, eff, sink, local, route, rng),
		stage:  make([]stageFIFO, len(n.Ports)),
	}
	// The local port ejects directly to the NI (no link to drain onto),
	// so only real outputs get staging storage.
	for pi := 1; pi < len(n.Ports); pi++ {
		q.stage[pi].buf = make([]stagedFlit, lay.StageSlots)
	}
	return q
}

// Arch implements Microarch.
func (q *OQ) Arch() string { return ArchOQ }

// Idle implements Microarch: output staging counts as pending work.
func (q *OQ) Idle() bool { return q.buffered == 0 && q.staged == 0 }

// Buffered implements Microarch: flits in input VCs plus staged flits.
func (q *OQ) Buffered() int { return q.buffered + q.staged }

// StagedFor implements Microarch.
func (q *OQ) StagedFor(p topology.PortID, vc int) int {
	s := &q.stage[p]
	cnt := 0
	for i := 0; i < s.count; i++ {
		if int(s.buf[(s.head+i)%len(s.buf)].outVC) == vc {
			cnt++
		}
	}
	return cnt
}

// StagedCount implements Microarch.
func (q *OQ) StagedCount(p topology.PortID) int { return q.stage[p].count }

// PortQuiet implements Microarch: staged flits still need the link, so a
// fenced output is only quiet once its staging FIFO drained too.
func (q *OQ) PortQuiet(p topology.PortID) bool {
	return q.stage[p].count == 0 && q.Router.PortQuiet(p)
}

// ScanStaged implements Microarch.
func (q *OQ) ScanStaged(fn func(message.Flit)) {
	for pi := range q.stage {
		s := &q.stage[pi]
		for i := 0; i < s.count; i++ {
			fn(s.buf[(s.head+i)%len(s.buf)].f)
		}
	}
}

// Step runs one output-queued cycle: drain one staged flit per output
// onto its link, then move every eligible input-VC front through the
// crossbar into its output's FIFO (full speedup; local ejections go
// straight to the NI).
func (q *OQ) Step(cycle sim.Cycle) {
	if q.buffered == 0 && q.staged == 0 {
		return
	}
	nports := len(q.In)
	// Output drain. Plugin claims (UPP popup circuits, signal hops) and
	// down links pause the port; claiming it ourselves keeps the link at
	// one flit per cycle against same-cycle out-of-band senders.
	if q.staged > 0 {
		for oi := 1; oi < nports; oi++ {
			st := &q.stage[oi]
			if st.count == 0 || q.outClaimedAt[oi] > cycle || q.downOut&(1<<uint(oi)) != 0 {
				continue
			}
			q.outClaimedAt[oi] = cycle + 1
			sf := st.pop()
			q.staged--
			q.Stats.BufferReads++
			q.Stats.LinkTravs++
			q.PortSent[oi]++
			if q.Node.Ports[oi].Dir == topology.Up {
				q.Stats.UpFlits++
				q.MarkUpSent(sf.f.Pkt.VNet, cycle)
			}
			nb, nbPort := q.Neighbor(topology.PortID(oi))
			q.sink.DeliverFlit(nb, nbPort, sf.outVC, sf.f, cycle+1+sim.Cycle(q.Cfg.LinkLatency))
		}
	}
	if q.buffered == 0 {
		return
	}
	// Input stage: full crossbar speedup — every eligible VC front moves.
	for pi := 0; pi < nports; pi++ {
		if q.inClaimedAt[pi] > cycle || q.In[pi].buffered == 0 {
			continue
		}
		vcs := q.In[pi].VCs
		for vi := range vcs {
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
				// Popup flits drain through the circuit inside the
				// destination chiplet (Sec. V-C).
				continue
			}
			if f.IsHead() && !vc.routed {
				q.routeHead(topology.PortID(pi), vi, vc, f, cycle)
			}
			if vc.OutPort == topology.InvalidPort {
				continue
			}
			q.Stats.SARequests++
			if vc.OutPort == topology.LocalPort {
				if vc.State == VCWaiting {
					if !q.local.CanAcceptHead(f.Pkt, cycle) {
						continue
					}
					vc.State = VCActive
				}
				q.Stats.SAGrants++
				q.ejectFront(topology.PortID(pi), vi, cycle)
				continue
			}
			st := &q.stage[vc.OutPort]
			if st.count == len(st.buf) {
				continue
			}
			if vc.State == VCWaiting && q.fencedOut&(1<<uint(vc.OutPort)) != 0 {
				// The port is draining toward a permanent cut: no new
				// wormhole may start crossing (UnrouteFencedHeads migrates
				// the head onto the new routing).
				continue
			}
			if vc.State == VCWaiting {
				// Deterministic VC selection: the first free downstream
				// VC of the packet's VNet with a credit.
				dv := q.firstFreeOutVC(vc.OutPort, f.Pkt.VNet)
				if dv < 0 {
					continue
				}
				vc.OutVC = int8(dv)
				q.Out[vc.OutPort].Busy[dv] = true
				vc.State = VCActive
			} else if q.Out[vc.OutPort].Credits[vc.OutVC] <= 0 {
				continue
			}
			q.Stats.SAGrants++
			q.stageFront(topology.PortID(pi), vi, cycle)
		}
	}
}

// firstFreeOutVC returns the first unallocated downstream VC of vnet on
// output out that holds a credit, or -1.
func (q *OQ) firstFreeOutVC(out topology.PortID, vnet message.VNet) int {
	o := &q.Out[out]
	for k := 0; k < q.Cfg.VCsPerVNet; k++ {
		dv := q.Cfg.VCIndex(vnet, k)
		if !o.Busy[dv] && o.Credits[dv] > 0 {
			return dv
		}
	}
	return -1
}

// ejectFront pops the front flit of (pi, vi) and hands it to the NI —
// the local port has no staging FIFO.
func (q *OQ) ejectFront(pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &q.In[pi].VCs[vi]
	f := vc.pop()
	q.In[pi].buffered--
	q.buffered--
	q.Stats.BufferReads++
	q.Stats.CrossbarTravs++
	tail := f.IsTail()
	if tail {
		q.releaseVC(vc, vi)
	}
	q.creditUpstream(pi, int8(vi), 1, tail, cycle)
	q.PortSent[topology.LocalPort]++
	q.local.AcceptFlit(f, cycle+1)
}

// stageFront pops the front flit of (pi, vi), consumes its downstream
// credit and writes it into the output's staging FIFO.
func (q *OQ) stageFront(pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &q.In[pi].VCs[vi]
	f := vc.pop()
	q.In[pi].buffered--
	q.buffered--
	q.Stats.BufferReads++
	q.Stats.CrossbarTravs++
	out, outVC := vc.OutPort, vc.OutVC
	tail := f.IsTail()
	if tail {
		q.releaseVC(vc, vi)
	}
	q.creditUpstream(pi, int8(vi), 1, tail, cycle)
	o := &q.Out[out]
	o.Credits[outVC]--
	if o.Credits[outVC] < 0 {
		panic("router: staged flit without credit")
	}
	q.stage[out].push(stagedFlit{f: f, outVC: outVC})
	q.staged++
	q.Stats.BufferWrites++
}
