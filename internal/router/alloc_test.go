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
		if r.inClaimedAt[pi] > cycle || r.In[pi].buffered == 0 {
			continue
		}
		if vi := r.pickInputVC(topology.PortID(pi), cycle); vi >= 0 {
			nominees[nn] = nominee{topology.PortID(pi), vi}
			nn++
			r.Stats.SARequests++
		}
	}
	if nn == 0 {
		return
	}
	for oi := 0; oi < nports; oi++ {
		if r.outClaimedAt[oi] > cycle {
			continue
		}
		out := &r.Out[oi]
		granted := -1
		for k := 1; k <= nports; k++ {
			pi := (out.rr + k) % nports
			for ni := 0; ni < nn; ni++ {
				if int(nominees[ni].port) == pi &&
					r.In[pi].VCs[nominees[ni].vc].OutPort == topology.PortID(oi) {
					granted = ni
					break
				}
			}
			if granted >= 0 {
				out.rr = pi
				break
			}
		}
		if granted < 0 {
			continue
		}
		nom := nominees[granted]
		r.grant(nom.port, nom.vc, cycle)
		nominees[granted] = nominees[nn-1]
		nn--
		if nn == 0 {
			break
		}
	}
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

// randomRouter builds a router at cycle 100 whose whole allocation state
// — VC contents and wormhole state, credits, busy bits, both round-robin
// pointer sets, the claimed/down/fenced masks — is drawn from seed. Equal
// seeds build equal routers.
func randomRouter(node *topology.Node, seed uint64) (*Router, *eventLog) {
	const cycle = 100
	g := sim.NewRNG(seed)
	cfg := Config{VCsPerVNet: 1 + g.Intn(4), BufferDepth: 4, LinkLatency: 1}
	nports, nvc := len(node.Ports), cfg.NumVCs()
	log := &eventLog{accept: g.Intn(4) != 0}
	routes := map[uint64]topology.PortID{}
	route := func(_ topology.NodeID, _ topology.PortID, p *message.Packet) (topology.PortID, error) {
		return routes[p.ID], nil
	}
	r := New(node, cfg, log, log, route, sim.NewRNG(seed^0x9e3779b9))
	id := uint64(0)
	for pi := 0; pi < nports; pi++ {
		out := &r.Out[pi]
		out.rr = g.Intn(nports)
		r.inRR[pi] = g.Intn(nvc)
		if g.Intn(5) == 0 {
			r.outClaimedAt[pi] = cycle + 1
		}
		if g.Intn(8) == 0 {
			r.inClaimedAt[pi] = cycle + 1
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
	r.upRouted = r.RecountUpRouted()
	return r, log
}

// allocState is everything switch allocation may write.
func allocState(r *Router) string {
	var b strings.Builder
	for pi := range r.In {
		fmt.Fprintf(&b, "p%d rr=%d inRR=%d sent=%d |", pi, r.Out[pi].rr, r.inRR[pi], r.PortSent[pi])
		for vi := range r.In[pi].VCs {
			vc := &r.In[pi].VCs[vi]
			fmt.Fprintf(&b, " %d:%d/%d/%d/%d c%d b%v", vi, vc.count, vc.State, vc.OutPort, vc.OutVC,
				r.Out[pi].Credits[vi], r.Out[pi].Busy[vi])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats=%+v census=%v rng=%v", r.Stats, r.upRouted, r.rng.State())
	return b.String()
}

// FuzzSwitchAllocEquivalence: on any allocation state the request-mask
// Step and the nested-loop oracle emit the same flits, credits and
// ejections in the same order (so grant's RNG draws line up too) and leave
// the same round-robin pointers, VC state, credits and counters — over
// three consecutive cycles, so the second and third start from pointers
// the first one moved.
func FuzzSwitchAllocEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	node := widestNode(f)
	f.Fuzz(func(t *testing.T, seed uint64) {
		a, alog := randomRouter(node, seed)
		b, blog := randomRouter(node, seed)
		if allocState(a) != allocState(b) {
			t.Fatal("randomRouter is not deterministic")
		}
		for cycle := sim.Cycle(100); cycle < 103; cycle++ {
			a.Step(cycle)
			oracleStep(b, cycle)
			if !reflect.DeepEqual(alog.log, blog.log) {
				t.Fatalf("cycle %d: emissions differ\nmask:   %q\noracle: %q", cycle, alog.log, blog.log)
			}
			if sa, sb := allocState(a), allocState(b); sa != sb {
				t.Fatalf("cycle %d: state differs\nmask:\n%s\noracle:\n%s", cycle, sa, sb)
			}
			if got, want := a.upRouted, a.RecountUpRouted(); got != want {
				t.Fatalf("cycle %d: census %v, recount %v", cycle, got, want)
			}
		}
	})
}

// TestRRPick pins the round-robin pick on its edges: strictly above rr
// first, wrapping to the lowest bit, rr itself last, bit 31 reachable.
func TestRRPick(t *testing.T) {
	for _, c := range []struct {
		m        uint32
		rr, want int
	}{
		{0b0001, 0, 0}, {0b0110, 0, 1}, {0b0110, 1, 2}, {0b0110, 2, 1},
		{0b1001, 3, 0}, {1 << 31, 5, 31}, {1<<31 | 1, 31, 0}, {1 << 31, 31, 31},
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
	r := New(node, DefaultConfig(), log, log, route, sim.NewRNG(1))
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
		_, err := NewMicroarch(arch, node, DefaultConfig(), nil, nil, nil, sim.NewRNG(1))
		if err == nil || !strings.Contains(err.Error(), "node 7 has 33 ports") {
			t.Errorf("%s: NewMicroarch on a %d-port node: err = %v, want a radix error naming node 7 and 33 ports", arch, maxPorts+1, err)
		}
	}
	node.Ports = node.Ports[:maxPorts]
	if _, err := NewMicroarch(ArchIQ, node, DefaultConfig(), nil, nil, nil, sim.NewRNG(1)); err != nil {
		t.Errorf("a %d-port node must be accepted: %v", maxPorts, err)
	}
}
