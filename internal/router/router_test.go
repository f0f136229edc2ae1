package router_test

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

type sentFlit struct {
	to    topology.NodeID
	port  topology.PortID
	vc    int8
	f     message.Flit
	cycle sim.Cycle
}

type sentCredit struct {
	to    topology.NodeID
	port  topology.PortID
	vc    int8
	delta int
	free  bool
	cycle sim.Cycle
}

type mockSink struct {
	flits   []sentFlit
	credits []sentCredit
}

func (m *mockSink) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	m.flits = append(m.flits, sentFlit{to, port, vc, f, cycle})
}

func (m *mockSink) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	m.credits = append(m.credits, sentCredit{to, port, vc, delta, free, cycle})
}

type mockLocal struct {
	accept bool
	got    []message.Flit
}

func (m *mockLocal) CanAcceptHead(*message.Packet, sim.Cycle) bool { return m.accept }
func (m *mockLocal) AcceptFlit(f message.Flit, _ sim.Cycle)        { m.got = append(m.got, f) }

// mustNew is router.New for configurations the test knows are valid.
func mustNew(t testing.TB, arch string, n *topology.Node, cfg router.Config, sink router.EventSink, local router.LocalSink, route router.RouteFunc) *router.Router {
	t.Helper()
	r, err := router.New(arch, n, cfg, sink, local, route, sim.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testRouter builds a router on the baseline topology's node 0 (an
// interposer corner router: local + east + north + up ports) with a fixed
// route to the given port.
func testRouter(t *testing.T, out topology.PortID) (*router.Router, *mockSink, *mockLocal) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	sink := &mockSink{}
	local := &mockLocal{accept: true}
	route := func(cur topology.NodeID, in topology.PortID, p *message.Packet) (topology.PortID, error) {
		return out, nil
	}
	r := mustNew(t, router.ArchIQ, topo.Node(0), router.DefaultConfig(), sink, local, route)
	return r, sink, local
}

func pkt(size int) *message.Packet {
	return &message.Packet{ID: 1, Src: 0, Dst: 5, VNet: message.VNetRequest, Size: size}
}

func TestPipelineTiming(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	p := pkt(1)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10) // BW at cycle 10
	r.Step(10)                                    // not yet eligible
	if len(sink.flits) != 0 {
		t.Fatal("flit moved in its buffer-write cycle")
	}
	r.Step(11) // SA+VCS, ST
	if len(sink.flits) != 1 {
		t.Fatalf("flit not sent at cycle 11: %v", sink.flits)
	}
	// ST at 11, LT, arrival at 11+1+linkLatency.
	if got := sink.flits[0].cycle; got != 13 {
		t.Fatalf("arrival cycle %d, want 13", got)
	}
	if r.Buffered() != 0 {
		t.Fatal("buffer not drained")
	}
}

func TestCreditAndVCLifecycle(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	p := pkt(2)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 0}, 10)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 1}, 11)
	for c := sim.Cycle(10); c < 16; c++ {
		r.Step(c)
	}
	if len(sink.flits) != 2 {
		t.Fatalf("sent %d flits, want 2", len(sink.flits))
	}
	// Downstream VC allocation: both flits into the same VC.
	if sink.flits[0].vc != sink.flits[1].vc {
		t.Fatal("packet split across downstream VCs")
	}
	// Credits consumed: 2 of 4.
	if got := r.Out[1].Credits[sink.flits[0].vc]; got != 2 {
		t.Fatalf("credits %d, want 2", got)
	}
	// Downstream VC still allocated until its free credit returns.
	if !r.Out[1].Busy[sink.flits[0].vc] {
		t.Fatal("downstream VC not held")
	}
	r.ReceiveCredit(1, sink.flits[0].vc, 1, false)
	r.ReceiveCredit(1, sink.flits[0].vc, 1, true)
	if r.Out[1].Busy[sink.flits[0].vc] {
		t.Fatal("free credit did not release the VC")
	}
	if got := r.Out[1].Credits[sink.flits[0].vc]; got != 4 {
		t.Fatalf("credits %d after return, want 4", got)
	}
	// Upstream credits: one per flit, free on the tail.
	if len(sink.credits) != 2 {
		t.Fatalf("%d upstream credits, want 2", len(sink.credits))
	}
	if sink.credits[0].free || !sink.credits[1].free {
		t.Fatalf("free flags wrong: %+v", sink.credits)
	}
}

func TestNoCreditNoSend(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	// Exhaust all VNet-0 credits on output 1.
	r.Out[1].Credits[0] = 0
	p := pkt(1)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	for c := sim.Cycle(10); c < 20; c++ {
		r.Step(c)
	}
	if len(sink.flits) != 0 {
		t.Fatal("sent a flit without credit")
	}
	r.ReceiveCredit(1, 0, 1, false)
	// Still Busy=false so a head can allocate... it was never busy.
	r.Step(21)
	if len(sink.flits) != 1 {
		t.Fatal("flit stuck after credit arrived")
	}
}

func TestBusyVCBlocksNewHead(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	r.Out[1].Busy[0] = true // vnet0's only VC taken downstream
	p := pkt(1)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	for c := sim.Cycle(10); c < 15; c++ {
		r.Step(c)
	}
	if len(sink.flits) != 0 {
		t.Fatal("head advanced into a busy downstream VC")
	}
	r.ReceiveCredit(1, 0, 0, true)
	r.Step(16)
	if len(sink.flits) != 1 {
		t.Fatal("head stuck after VC freed")
	}
}

func TestClaimedOutputBlocksSA(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	p := pkt(1)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	if !r.ClaimOutput(1, 11) {
		t.Fatal("claim failed")
	}
	r.Step(11)
	if len(sink.flits) != 0 {
		t.Fatal("SA used a claimed output")
	}
	r.Step(12) // the claim expired with cycle 11
	if len(sink.flits) != 1 {
		t.Fatal("flit stuck after claim expired")
	}
}

// TestClaimedInputBlocksSA: a plugin's claim on an input port's crossbar
// slot keeps switch allocation off that port for the cycle — under every
// allocator, which all learn of claims through claimedAt — and leaves the
// derived state consistent.
func TestClaimedInputBlocksSA(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	route := func(topology.NodeID, topology.PortID, *message.Packet) (topology.PortID, error) { return 1, nil }
	for _, arch := range []string{router.ArchIQ, router.ArchVOQ, router.ArchOQ} {
		sink := &mockSink{}
		r := mustNew(t, arch, topo.Node(0), router.DefaultConfig(), sink, &mockLocal{accept: true}, route)
		r.ReceiveFlit(2, 0, message.Flit{Pkt: pkt(1)}, 10)
		if !r.ClaimInput(2, 11) {
			t.Fatal("claim failed")
		}
		if err := r.CheckDerived(); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		r.Step(11)
		if r.Buffered() != 1 || len(sink.credits) != 0 {
			t.Fatalf("%s: SA used a claimed input", arch)
		}
		r.Step(12) // the claim expired with cycle 11
		if len(sink.credits) != 1 {
			t.Fatalf("%s: flit stuck after claim expired", arch)
		}
	}
}

func TestHoldBlocksSA(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	p := pkt(1)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	r.VCAt(2, 0).Hold = true
	for c := sim.Cycle(10); c < 15; c++ {
		r.Step(c)
	}
	if len(sink.flits) != 0 {
		t.Fatal("held VC moved through SA")
	}
	r.VCAt(2, 0).Hold = false
	r.Step(16)
	if len(sink.flits) != 1 {
		t.Fatal("flit stuck after hold cleared")
	}
}

func TestOneFlitPerOutputPerCycle(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	// Two packets on different input ports, same output, different vnets
	// (so both could allocate a VC).
	p1 := &message.Packet{ID: 1, Dst: 5, VNet: 0, Size: 1}
	p2 := &message.Packet{ID: 2, Dst: 5, VNet: 1, Size: 1}
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p1}, 10)
	r.ReceiveFlit(3, int8(r.Cfg.VCIndex(1, 0)) /* vnet1 vc */, message.Flit{Pkt: p2}, 10)
	r.Step(11)
	if len(sink.flits) != 1 {
		t.Fatalf("output port carried %d flits in one cycle", len(sink.flits))
	}
	r.Step(12)
	if len(sink.flits) != 2 {
		t.Fatal("second flit never granted")
	}
}

func TestEjectionAdmission(t *testing.T) {
	r, _, local := testRouter(t, topology.LocalPort)
	local.accept = false
	p := pkt(1)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	for c := sim.Cycle(10); c < 15; c++ {
		r.Step(c)
	}
	if len(local.got) != 0 {
		t.Fatal("head ejected despite a full ejection queue")
	}
	local.accept = true
	r.Step(16)
	if len(local.got) != 1 {
		t.Fatal("flit not ejected after queue freed")
	}
}

func TestPopFrontSemantics(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	p := pkt(2)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 0}, 10)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 1}, 10)
	f := r.PopFront(2, 0, 12)
	if f.Seq != 0 {
		t.Fatal("PopFront order")
	}
	if len(sink.credits) != 1 || sink.credits[0].free {
		t.Fatalf("non-tail pop credit wrong: %+v", sink.credits)
	}
	f = r.PopFront(2, 0, 13)
	if !f.IsTail() {
		t.Fatal("expected tail")
	}
	if len(sink.credits) != 2 || !sink.credits[1].free {
		t.Fatalf("tail pop must send a free credit: %+v", sink.credits)
	}
	if got := r.VCAt(2, 0).State; got != router.VCIdle {
		t.Fatalf("VC state %v after tail pop", got)
	}
}

func TestForceReleaseVC(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	p := pkt(5)
	r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 0}, 10)
	_ = r.PopFront(2, 0, 12) // head diverted; VC empty but mid-packet
	r.ForceReleaseVC(2, 0, 13)
	last := sink.credits[len(sink.credits)-1]
	if !last.free || last.delta != 0 {
		t.Fatalf("force release credit wrong: %+v", last)
	}
	if r.VCAt(2, 0).State != router.VCIdle {
		t.Fatal("VC not reset")
	}
}

func TestBufferOverflowPanics(t *testing.T) {
	r, _, _ := testRouter(t, 1)
	p := pkt(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	for i := int32(0); i < 5; i++ {
		r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: i}, 10)
	}
}

func TestCreditOverflowPanics(t *testing.T) {
	r, _, _ := testRouter(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit overflow panic")
		}
	}()
	r.ReceiveCredit(1, 0, 1, false) // already at full depth
}

func TestAllocateOutputVC(t *testing.T) {
	r, _, _ := testRouter(t, 1)
	vc := r.AllocateOutputVC(1, message.VNetRequest)
	if vc < 0 {
		t.Fatal("allocation failed on idle output")
	}
	if !r.Out[1].Busy[vc] {
		t.Fatal("allocation did not mark busy")
	}
	if again := r.AllocateOutputVC(1, message.VNetRequest); again >= 0 {
		t.Fatal("double allocation of the single VNet-0 VC")
	}
	if other := r.AllocateOutputVC(1, message.VNetResponse); other < 0 {
		t.Fatal("other VNet should still allocate")
	}
}

func TestUpSentMask(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	// Node 0 is an interposer router; find its Up port.
	up := topo.Node(0).PortTo(topology.Up)
	if up == topology.InvalidPort {
		t.Fatal("node 0 has no up port")
	}
	sink := &mockSink{}
	route := func(topology.NodeID, topology.PortID, *message.Packet) (topology.PortID, error) {
		return up, nil
	}
	r := mustNew(t, router.ArchIQ, topo.Node(0), router.DefaultConfig(), sink, &mockLocal{accept: true}, route)
	p := &message.Packet{ID: 1, Dst: 20, VNet: message.VNetResponse, Size: 1}
	r.ReceiveFlit(1, int8(r.Cfg.VCIndex(message.VNetResponse, 0)), message.Flit{Pkt: p}, 10)
	r.Step(11)
	if r.UpSentMask(11) != 1<<uint(message.VNetResponse) {
		t.Fatalf("up mask %b", r.UpSentMask(11))
	}
	if r.UpSentMask(12) != 0 {
		t.Fatal("mask must expire with the cycle it was recorded for")
	}
}

func TestSendOnOutput(t *testing.T) {
	r, sink, _ := testRouter(t, 1)
	vc := r.AllocateOutputVC(1, message.VNetRequest)
	if vc < 0 {
		t.Fatal("allocation failed")
	}
	if !r.CreditsAvailable(1, vc) {
		t.Fatal("no credits on idle output")
	}
	p := pkt(1)
	r.SendOnOutput(1, vc, message.Flit{Pkt: p}, 20)
	if len(sink.flits) != 1 || sink.flits[0].vc != vc {
		t.Fatalf("send wrong: %+v", sink.flits)
	}
	if got := r.Out[1].Credits[vc]; got != 3 {
		t.Fatalf("credits %d after send", got)
	}
	if sink.flits[0].cycle != 22 {
		t.Fatalf("arrival %d, want 22", sink.flits[0].cycle)
	}
}

func TestEjectDirect(t *testing.T) {
	r, _, local := testRouter(t, topology.LocalPort)
	p := pkt(1)
	r.EjectDirect(message.Flit{Pkt: p}, 30)
	if len(local.got) != 1 {
		t.Fatal("EjectDirect did not reach the local sink")
	}
}

func TestClaimsAreExclusive(t *testing.T) {
	r, _, _ := testRouter(t, 1)
	if !r.ClaimOutput(1, 20) || r.ClaimOutput(1, 20) {
		t.Fatal("output claim not exclusive")
	}
	if !r.ClaimInput(2, 20) || r.ClaimInput(2, 20) {
		t.Fatal("input claim not exclusive")
	}
	if !r.OutputClaimed(1, 20) {
		t.Fatal("claim not visible")
	}
	if r.OutputClaimed(1, 21) {
		t.Fatal("claim survived into the next cycle")
	}
	if !r.ClaimOutput(1, 21) {
		t.Fatal("expired claim blocks re-claiming")
	}
}

func TestNeighborLookup(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	r := mustNew(t, router.ArchIQ, topo.Node(0), router.DefaultConfig(), &mockSink{}, &mockLocal{}, nil)
	nb, port := r.Neighbor(1)
	back := topo.Node(nb)
	if back.Ports[port].Neighbor != 0 {
		t.Fatal("neighbor wiring asymmetric")
	}
}
