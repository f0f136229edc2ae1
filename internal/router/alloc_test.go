package router

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// oracleStep is the nested-loop switch allocator Step used before the
// request masks: a ports × ports × nominees scan in ascending output
// order, round-robin over inputs starting after the last grant. Kept as
// the reference FuzzSwitchAllocEquivalence holds the mask allocator to.
// Like every oracle below it calls only the pre-merge copies of the
// eligibility rule, VC selection and dequeue/transmit kept in this file.
func oracleStep(r *Router, cycle sim.Cycle) {
	if r.buffered == 0 {
		return
	}
	nports := len(r.In)
	type nominee struct {
		port topology.PortID
		vc   int
	}
	var nominees [maxPorts]nominee
	nn := 0
	for pi := 0; pi < nports; pi++ {
		if r.ports[pi].inClaimedAt > cycle || r.ports[pi].buffered == 0 {
			continue
		}
		if vi := oraclePickInputVC(r, topology.PortID(pi), cycle); vi >= 0 {
			nominees[nn] = nominee{topology.PortID(pi), vi}
			nn++
			r.Stats.SARequests++
		}
	}
	if nn == 0 {
		return
	}
	for oi := 0; oi < nports; oi++ {
		if r.ports[oi].outClaimedAt > cycle {
			continue
		}
		out := &r.ports[oi]
		granted := -1
		for k := 1; k <= nports; k++ {
			pi := (int(out.outRR) + k) % nports
			for ni := 0; ni < nn; ni++ {
				if int(nominees[ni].port) == pi &&
					r.In[pi].VCs[nominees[ni].vc].OutPort == topology.PortID(oi) {
					granted = ni
					break
				}
			}
			if granted >= 0 {
				out.outRR = int8(pi)
				break
			}
		}
		if granted < 0 {
			continue
		}
		nom := nominees[granted]
		oracleGrant(r, nom.port, nom.vc, cycle)
		nominees[granted] = nominees[nn-1]
		nn--
		if nn == 0 {
			break
		}
	}
}

// The functions from here to oracleStageFront are the switch-allocation
// bodies as they stood before the router variants were folded into one
// type (commit 944f7a7), verbatim but for their receivers: iq's
// pickInputVC, grant and sendFront, VOQ.Step with pickVCFor, and OQ.Step
// with firstFreeOutVC, ejectFront and stageFront. They are references the
// merged requestOf/pickVC/grant/PopFront/transmit path is compared
// against, not a second shipped path; the helpers they share with it
// (routeHead, headCanAdvance, releaseVC, creditUpstream, MarkUpSent) did
// not change in the merge.

func oraclePickInputVC(r *Router, pi topology.PortID, cycle sim.Cycle) int {
	vcs := r.In[pi].VCs
	vi := int(r.ports[pi].inRR)
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
		if f.Pkt.Popup && int16(r.Node.Chiplet) == f.Pkt.DstChiplet {
			// Inside the destination chiplet, popup flits bypass switch
			// allocation and drain through the circuit (Sec. V-C).
			// Upstream — the interposer mesh and the source chiplet — the
			// packet's trailing flits still flow normally toward the
			// origin interposer router.
			continue
		}
		if f.IsHead() && !vc.routed {
			r.routeHead(pi, vi, vc, f, cycle)
		}
		if vc.OutPort == topology.InvalidPort || r.ports[vc.OutPort].outClaimedAt > cycle ||
			r.downOut&(1<<uint(vc.OutPort)) != 0 {
			continue
		}
		switch vc.State {
		case VCWaiting:
			if r.fencedOut&(1<<uint(vc.OutPort)) != 0 {
				// The port is draining toward a permanent cut: no new
				// wormhole may start crossing (the head is migrated onto
				// the new routing by UnrouteFencedHeads).
				continue
			}
			if !r.headCanAdvance(vc, f, cycle) {
				continue
			}
		case VCActive:
			if vc.OutPort != topology.LocalPort && r.Out[vc.OutPort].Credits[vc.OutVC] <= 0 {
				continue
			}
		default:
			continue
		}
		r.ports[pi].inRR = int8(vi)
		return vi
	}
	return -1
}

func oracleGrant(r *Router, pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &r.In[pi].VCs[vi]
	f, _, _ := vc.Front()
	if vc.State == VCWaiting {
		if vc.OutPort != topology.LocalPort {
			// VC selection: pick a random free downstream VC of the
			// packet's VNet (the paper's randomized VCS stage).
			out := &r.Out[vc.OutPort]
			vnet := f.Pkt.VNet
			need := int16(1)
			if r.Cfg.VCT {
				need = int16(f.Pkt.Size)
			}
			// Fixed-size candidate array (VCsPerVNet is bounded by
			// Config.Validate): a make() here would allocate on every
			// head grant.
			var free [maxVCsPerVNet]int8
			nf := 0
			for k := 0; k < r.Cfg.VCsPerVNet; k++ {
				dv := int8(r.Cfg.VCIndex(vnet, k))
				if !out.Busy[dv] && out.Credits[dv] >= need {
					free[nf] = dv
					nf++
				}
			}
			vc.OutVC = free[r.rng.Intn(nf)]
			out.Busy[vc.OutVC] = true
		}
		vc.State = VCActive
	}
	r.Stats.SAGrants++
	oracleSendFront(r, pi, vi, cycle)
}

// sendFront dequeues the front flit of (pi, vi) and sends it through the
// crossbar to the VC's allocated output. Credits flow upstream; tail flits
// release the VC.
func oracleSendFront(r *Router, pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &r.In[pi].VCs[vi]
	f := vc.pop()
	r.ports[pi].buffered--
	r.buffered--
	r.Stats.BufferReads++
	r.Stats.CrossbarTravs++
	out := vc.OutPort
	outVC := vc.OutVC
	tail := f.IsTail()
	if tail {
		// All flits of the packet passed through; the VC is reusable. The
		// downstream allocation is freed by the downstream router's own
		// tail departure (free credit), not here.
		r.releaseVC(vc, vi)
	}
	r.creditUpstream(pi, int8(vi), 1, tail, cycle)
	r.ports[out].sent++
	if out == topology.LocalPort {
		r.local.AcceptFlit(f, cycle+1)
		return
	}
	r.Stats.LinkTravs++
	if r.Node.Ports[out].Dir == topology.Up {
		r.Stats.UpFlits++
		r.MarkUpSent(f.Pkt.VNet, cycle)
	}
	o := &r.Out[out]
	o.Credits[outVC]--
	if o.Credits[outVC] < 0 {
		panic("router: sent flit without credit")
	}
	nb, nbPort := r.Neighbor(out)
	r.sink.DeliverFlit(nb, nbPort, outVC, f, cycle+1+sim.Cycle(r.Cfg.LinkLatency))
}

func oracleStepVOQ(q *Router, cycle sim.Cycle) {
	if q.buffered == 0 {
		return
	}
	nports := len(q.In)
	var inputUsed uint32
	for oi := 0; oi < nports; oi++ {
		if q.ports[oi].outClaimedAt > cycle || q.downOut&(1<<uint(oi)) != 0 {
			continue
		}
		out := &q.ports[oi]
		pi := int(out.outRR)
		for k := 0; k < nports; k++ {
			if pi++; pi >= nports {
				pi = 0
			}
			if inputUsed&(1<<uint(pi)) != 0 || q.ports[pi].inClaimedAt > cycle || q.ports[pi].buffered == 0 {
				continue
			}
			vi := oraclePickVCFor(q, topology.PortID(pi), topology.PortID(oi), cycle)
			if vi < 0 {
				continue
			}
			q.Stats.SARequests++
			oracleGrant(q, topology.PortID(pi), vi, cycle)
			out.outRR = int8(pi)
			inputUsed |= 1 << uint(pi)
			break
		}
	}
}

func oraclePickVCFor(q *Router, pi, oi topology.PortID, cycle sim.Cycle) int {
	vcs := q.In[pi].VCs
	vi := int(q.ports[pi].inRR)
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
		q.ports[pi].inRR = int8(vi)
		return vi
	}
	return -1
}

func oracleStepOQ(q *Router, cycle sim.Cycle) {
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
			if st.count == 0 || q.ports[oi].outClaimedAt > cycle || q.downOut&(1<<uint(oi)) != 0 {
				continue
			}
			q.ports[oi].outClaimedAt = cycle + 1
			sf := st.pop()
			q.staged--
			q.Stats.BufferReads++
			q.Stats.LinkTravs++
			q.ports[oi].sent++
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
		if q.ports[pi].inClaimedAt > cycle || q.ports[pi].buffered == 0 {
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
				oracleEjectFront(q, topology.PortID(pi), vi, cycle)
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
				dv := oracleFirstFreeOutVC(q, vc.OutPort, f.Pkt.VNet)
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
			oracleStageFront(q, topology.PortID(pi), vi, cycle)
		}
	}
}

// firstFreeOutVC returns the first unallocated downstream VC of vnet on
// output out that holds a credit, or -1.
func oracleFirstFreeOutVC(q *Router, out topology.PortID, vnet message.VNet) int {
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
func oracleEjectFront(q *Router, pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &q.In[pi].VCs[vi]
	f := vc.pop()
	q.ports[pi].buffered--
	q.buffered--
	q.Stats.BufferReads++
	q.Stats.CrossbarTravs++
	tail := f.IsTail()
	if tail {
		q.releaseVC(vc, vi)
	}
	q.creditUpstream(pi, int8(vi), 1, tail, cycle)
	q.ports[topology.LocalPort].sent++
	q.local.AcceptFlit(f, cycle+1)
}

// stageFront pops the front flit of (pi, vi), consumes its downstream
// credit and writes it into the output's staging FIFO.
func oracleStageFront(q *Router, pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &q.In[pi].VCs[vi]
	f := vc.pop()
	q.ports[pi].buffered--
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

// eventLog records everything a router emits, in order, as text.
type eventLog struct {
	accept bool
	log    []string
}

func (l *eventLog) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	l.log = append(l.log, fmt.Sprintf("flit pkt%d/%d -> node%d in[%d] vc%d @%d", f.Pkt.ID, f.Seq, to, port, vc, cycle))
}

func (l *eventLog) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	l.log = append(l.log, fmt.Sprintf("credit -> node%d out[%d] vc%d +%d free=%v @%d", to, port, vc, delta, free, cycle))
}

func (l *eventLog) CanAcceptHead(*message.Packet, sim.Cycle) bool { return l.accept }

func (l *eventLog) AcceptFlit(f message.Flit, arrival sim.Cycle) {
	l.log = append(l.log, fmt.Sprintf("eject pkt%d/%d @%d", f.Pkt.ID, f.Seq, arrival))
}

// widestNode returns the baseline topology's highest-radix router with an
// Up port (an interior interposer router: local + four mesh + up).
func widestNode(t testing.TB) *topology.Node {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	var best *topology.Node
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		if n.PortTo(topology.Up) != topology.InvalidPort && (best == nil || len(n.Ports) > len(best.Ports)) {
			best = n
		}
	}
	return best
}

// randomRouter builds an arch router at cycle 100 whose whole allocation
// state — VC contents and wormhole state, credits, busy bits, both
// round-robin pointer sets, the claimed/down/fenced masks and, for oq, the
// staging FIFOs' contents — is drawn from seed. Equal seeds build equal
// routers.
func randomRouter(t testing.TB, arch string, node *topology.Node, seed uint64) (*Router, *eventLog) {
	const cycle = 100
	g := sim.NewRNG(seed)
	cfg := Config{VCsPerVNet: 1 + g.Intn(4), BufferDepth: 4, LinkLatency: 1}
	nports, nvc := len(node.Ports), cfg.NumVCs()
	log := &eventLog{accept: g.Intn(4) != 0}
	routes := map[uint64]topology.PortID{}
	route := func(_ topology.NodeID, _ topology.PortID, p *message.Packet) (topology.PortID, error) {
		return routes[p.ID], nil
	}
	r, err := New(arch, node, cfg, log, log, route, sim.NewRNG(seed^0x9e3779b9), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg = r.Cfg // oq's input VCs are shallower than the budget depth
	id := uint64(0)
	for pi := 0; pi < nports; pi++ {
		out := &r.Out[pi]
		r.ports[pi].outRR = int8(g.Intn(nports))
		r.ports[pi].inRR = int8(g.Intn(nvc))
		if g.Intn(5) == 0 {
			r.ports[pi].outClaimedAt = cycle + 1
			r.claimedAt = cycle + 1
		}
		if g.Intn(8) == 0 {
			r.ports[pi].inClaimedAt = cycle + 1
			r.claimedAt = cycle + 1
		}
		if pi > 0 && g.Intn(10) == 0 {
			r.downOut |= 1 << uint(pi)
		}
		if pi > 0 && g.Intn(10) == 0 {
			r.fencedOut |= 1 << uint(pi)
		}
		for vi := 0; vi < nvc; vi++ {
			out.Credits[vi] = int16(g.Intn(cfg.BufferDepth + 1))
			out.Busy[vi] = g.Intn(3) == 0
			if g.Intn(3) == 0 {
				continue // empty VC
			}
			id++
			p := &message.Packet{ID: id, Size: 1 + g.Intn(5), VNet: cfg.VCVNet(vi)}
			routes[id] = topology.PortID(g.Intn(nports))
			vc := &r.In[pi].VCs[vi]
			first := int32(0)
			if p.Size > 1 && g.Intn(2) == 0 {
				// Mid-packet: the head already left through an allocated
				// downstream VC of the packet's VNet.
				first = int32(1 + g.Intn(p.Size-1))
				vc.routed, vc.State, vc.OutPort = true, VCActive, routes[id]
				vc.OutVC = int8(cfg.VCIndex(p.VNet, g.Intn(cfg.VCsPerVNet)))
			}
			vc.Hold = g.Intn(12) == 0
			for seq := first; int(seq) < p.Size && vc.Free() > 0 && g.Intn(4) != 0; seq++ {
				r.ReceiveFlit(topology.PortID(pi), int8(vi), message.Flit{Pkt: p, Seq: seq}, cycle-2+sim.Cycle(g.Intn(3)))
			}
		}
	}
	for oi := range r.stage {
		st := &r.stage[oi]
		for n := g.Intn(len(st.buf) + 1); n > 0; n-- {
			id++
			p := &message.Packet{ID: id, Size: 1 + g.Intn(5), VNet: message.VNet(g.Intn(message.NumVNets))}
			outVC := int8(cfg.VCIndex(p.VNet, g.Intn(cfg.VCsPerVNet)))
			st.push(stagedFlit{f: message.Flit{Pkt: p, Seq: int32(g.Intn(p.Size))}, outVC: outVC})
			r.staged++
		}
	}
	r.upRouted = r.RecountUpRouted()
	return r, log
}

// allocState is everything switch allocation may write.
func allocState(r *Router) string {
	var b strings.Builder
	for pi := range r.In {
		p := &r.ports[pi]
		fmt.Fprintf(&b, "p%d rr=%d inRR=%d sent=%d claims=%d/%d |", pi, p.outRR, p.inRR, p.sent, p.outClaimedAt, p.inClaimedAt)
		for vi := range r.In[pi].VCs {
			vc := &r.In[pi].VCs[vi]
			fmt.Fprintf(&b, " %d:%d/%d/%d/%d c%d b%v", vi, vc.count, vc.State, vc.OutPort, vc.OutVC,
				r.Out[pi].Credits[vi], r.Out[pi].Busy[vi])
		}
		if r.stage != nil {
			b.WriteString(" staged")
			for i := 0; i < r.stage[pi].count; i++ {
				sf := r.stage[pi].at(i)
				fmt.Fprintf(&b, " pkt%d/%d>vc%d", sf.f.Pkt.ID, sf.f.Seq, sf.outVC)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "buffered=%d staged=%d upsent=%d@%d stats=%+v census=%v rng=%v",
		r.buffered, r.staged, r.upSent, r.upSentAt, r.Stats, r.upRouted, r.rng.State())
	return b.String()
}

// FuzzSwitchAllocEquivalence: on any allocation state and under every
// arch, Step and that arch's oracle — the nested-loop allocator for iq, the
// pre-merge VOQ.Step and OQ.Step for the other two — emit the same flits,
// credits and ejections in the same order (so grant's RNG draws line up
// too) and leave the same round-robin pointers, VC state, credits, staged
// flits, claims and counters — over three consecutive cycles, so the
// second and third start from pointers the first one moved.
func FuzzSwitchAllocEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	node := widestNode(f)
	oracles := []struct {
		arch string
		step func(*Router, sim.Cycle)
	}{{ArchIQ, oracleStep}, {ArchVOQ, oracleStepVOQ}, {ArchOQ, oracleStepOQ}}
	f.Fuzz(func(t *testing.T, seed uint64) {
	archs:
		for _, o := range oracles {
			a, alog := randomRouter(t, o.arch, node, seed)
			b, blog := randomRouter(t, o.arch, node, seed)
			if allocState(a) != allocState(b) {
				t.Fatalf("%s: randomRouter is not deterministic", o.arch)
			}
			for cycle := sim.Cycle(100); cycle < 103; cycle++ {
				a.Step(cycle)
				o.step(b, cycle)
				if !reflect.DeepEqual(alog.log, blog.log) {
					t.Errorf("%s cycle %d: emissions differ\nstep:   %q\noracle: %q", o.arch, cycle, alog.log, blog.log)
					continue archs
				}
				if sa, sb := allocState(a), allocState(b); sa != sb {
					t.Errorf("%s cycle %d: state differs\nstep:\n%s\noracle:\n%s", o.arch, cycle, sa, sb)
					continue archs
				}
				if got, want := a.upRouted, a.RecountUpRouted(); got != want {
					t.Errorf("%s cycle %d: census %v, recount %v", o.arch, cycle, got, want)
					continue archs
				}
			}
		}
	})
}

// TestRRPick pins the round-robin pick on its edges: strictly above rr
// first, wrapping to the lowest bit, rr itself last, bits 31 (ports) and 47
// (VCs) reachable.
func TestRRPick(t *testing.T) {
	for _, c := range []struct {
		m        uint64
		rr, want int
	}{
		{0b0001, 0, 0}, {0b0110, 0, 1}, {0b0110, 1, 2}, {0b0110, 2, 1},
		{0b1001, 3, 0}, {1 << 31, 5, 31}, {1<<31 | 1, 31, 0}, {1 << 31, 31, 31},
		{1<<47 | 1<<2, 2, 47}, {1<<63 | 1, 63, 0},
	} {
		if got := rrPick(c.m, c.rr); got != c.want {
			t.Errorf("rrPick(%b, %d) = %d, want %d", c.m, c.rr, got, c.want)
		}
	}
}

// TestCensusFollowsRouteAndRelease walks one VC through every census
// site a single router can show: route computation toward the Up port
// enters it, UnrouteFencedHeads drops it, re-routing re-enters it, and
// the tail's departure releases it.
func TestCensusFollowsRouteAndRelease(t *testing.T) {
	node := widestNode(t)
	up := node.PortTo(topology.Up)
	log := &eventLog{accept: true}
	route := func(topology.NodeID, topology.PortID, *message.Packet) (topology.PortID, error) { return up, nil }
	r, err := New(ArchIQ, node, DefaultConfig(), log, log, route, sim.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &message.Packet{ID: 1, Size: 1, VNet: message.VNetResponse}
	vi := int8(r.Cfg.VCIndex(p.VNet, 0))
	want := func(step string, n int32) {
		t.Helper()
		var w [message.NumVNets]int32
		w[p.VNet] = n
		if r.UpRouted() != w || r.RecountUpRouted() != w {
			t.Fatalf("%s: census %v, recount %v, want %v", step, r.UpRouted(), r.RecountUpRouted(), w)
		}
	}
	r.ReceiveFlit(1, vi, message.Flit{Pkt: p}, 0)
	r.Out[up].Busy[vi] = true // no free downstream VC: the head routes, then waits
	r.Step(1)
	want("routed upward", 1)
	if port, vc, _ := r.StalledHead(p.VNet, 0, 1, false); port != 1 || vc != int(vi) {
		t.Fatalf("StalledHead = in[%d] vc%d, want in[1] vc%d", port, vc, vi)
	}
	if port, _, _ := r.StalledHead(message.VNetRequest, 0, 1, false); port != topology.InvalidPort {
		t.Fatalf("StalledHead found a stalled head in an empty VNet at in[%d]", port)
	}
	r.SetPortFenced(up, true)
	if n := r.UnrouteFencedHeads(); n != 1 {
		t.Fatalf("UnrouteFencedHeads = %d, want 1", n)
	}
	want("unrouted", 0)
	r.SetPortFenced(up, false)
	r.Step(2)
	want("re-routed", 1)
	r.Out[up].Busy[vi] = false
	r.Step(3)
	want("tail left", 0)
}

// TestRadixBound: a node with more ports than the port masks hold is
// refused at construction, by name and port count, for every variant.
func TestRadixBound(t *testing.T) {
	node := &topology.Node{ID: 7, Ports: make([]topology.Port, maxPorts+1)}
	for _, arch := range []string{ArchIQ, ArchOQ, ArchVOQ} {
		_, err := New(arch, node, DefaultConfig(), nil, nil, nil, sim.NewRNG(1), nil)
		if err == nil || !strings.Contains(err.Error(), "node 7 has 33 ports") {
			t.Errorf("%s: New on a %d-port node: err = %v, want a radix error naming node 7 and 33 ports", arch, maxPorts+1, err)
		}
	}
	node.Ports = node.Ports[:maxPorts]
	if _, err := New(ArchIQ, node, DefaultConfig(), nil, nil, nil, sim.NewRNG(1), nil); err != nil {
		t.Errorf("a %d-port node must be accepted: %v", maxPorts, err)
	}
}
