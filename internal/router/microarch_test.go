package router_test

import (
	"strings"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// testMicroarch builds the named router variant on the baseline topology's
// node 0 with a fixed route to the given port.
func testMicroarch(t *testing.T, arch string, out topology.PortID) (*router.Router, *mockSink, *mockLocal) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	sink := &mockSink{}
	local := &mockLocal{accept: true}
	route := func(cur topology.NodeID, in topology.PortID, p *message.Packet) (topology.PortID, error) {
		return out, nil
	}
	return mustNew(t, arch, topo.Node(0), router.DefaultConfig(), sink, local, route), sink, local
}

func TestNewMicroarchDispatch(t *testing.T) {
	for _, arch := range []string{router.ArchIQ, router.ArchOQ, router.ArchVOQ} {
		m, _, _ := testMicroarch(t, arch, 1)
		if m.Arch != arch {
			t.Errorf("New(%q).Arch = %q", arch, m.Arch)
		}
		if m.ID != 0 {
			t.Errorf("%s: ID %d, want 0", arch, m.ID)
		}
		if len(m.In) != len(m.Node.Ports) || len(m.Out) != len(m.Node.Ports) {
			t.Errorf("%s: %d inputs, %d outputs, want %d of each", arch, len(m.In), len(m.Out), len(m.Node.Ports))
		}
		// Cfg reports the effective (credit-counted) input depth: the
		// full budget depth for iq/voq, the split depth for oq.
		want := router.DefaultConfig().BufferDepth
		if arch == router.ArchOQ {
			want /= 2
		}
		if got := m.Cfg.BufferDepth; got != want {
			t.Errorf("%s: effective BufferDepth %d, want %d", arch, got, want)
		}
		if !m.Idle() || m.Buffered() != 0 {
			t.Errorf("%s: fresh router not idle", arch)
		}
	}
	topo := topology.MustBuild(topology.BaselineConfig())
	_, err := router.New("banyan", topo.Node(0), router.DefaultConfig(), &mockSink{}, &mockLocal{}, nil, sim.NewRNG(1), nil)
	if err == nil || !strings.Contains(err.Error(), `unknown arch "banyan"`) {
		t.Fatalf("unknown arch error = %v", err)
	}
}

// TestOQStageAndDrainTiming: the output-queued pipeline stages an eligible
// input front one cycle after buffer write (consuming the downstream
// credit at the staging write) and drains it onto the link the following
// cycle, so a single flit arrives one cycle later than under iq.
func TestOQStageAndDrainTiming(t *testing.T) {
	m, sink, _ := testMicroarch(t, router.ArchOQ, 1)
	p := pkt(1)
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10) // BW at cycle 10
	m.Step(10)                                    // not yet eligible
	if len(sink.flits) != 0 || m.StagedCount(1) != 0 {
		t.Fatal("flit moved in its buffer-write cycle")
	}
	m.Step(11) // crossbar: input VC -> output staging FIFO
	if len(sink.flits) != 0 {
		t.Fatal("staged flit reached the link in its staging cycle")
	}
	if m.StagedCount(1) != 1 || m.StagedFor(1, 0) != 1 {
		t.Fatalf("staged accounting: count %d, for-vc0 %d; want 1, 1", m.StagedCount(1), m.StagedFor(1, 0))
	}
	// The staging write is the credit consumption: 1 of the effective
	// depth-2 downstream credits remains.
	if got := m.Out[1].Credits[0]; got != 1 {
		t.Fatalf("credits %d after staging, want 1", got)
	}
	if m.Idle() || m.Buffered() != 1 {
		t.Fatal("router with staged output work reported idle")
	}
	seen := 0
	m.ScanStaged(func(message.Flit) { seen++ })
	if seen != 1 {
		t.Fatalf("ScanStaged visited %d flits, want 1", seen)
	}
	m.Step(12) // output drain: ST + LT
	if len(sink.flits) != 1 {
		t.Fatalf("flit not drained at cycle 12: %v", sink.flits)
	}
	if got := sink.flits[0].cycle; got != 14 {
		t.Fatalf("arrival cycle %d, want 14 (drain at 12 + ST + link)", got)
	}
	if m.StagedCount(1) != 0 || !m.Idle() {
		t.Fatal("staging FIFO not drained")
	}
	if m.PortSent(1) != 1 {
		t.Fatal("link-side PortSent not counted at drain")
	}
	// Upstream credit flowed at the staging pop (tail flit -> free).
	if len(sink.credits) != 1 || !sink.credits[0].free {
		t.Fatalf("upstream credits: %+v", sink.credits)
	}
}

// TestOQFullSpeedup: two inputs bound for the same output both traverse
// the crossbar in one cycle (the switch-level HoL-blocking elimination),
// then the output serializes them onto the link at one flit per cycle.
func TestOQFullSpeedup(t *testing.T) {
	m, sink, _ := testMicroarch(t, router.ArchOQ, 1)
	cfg := m.Cfg
	p1 := &message.Packet{ID: 1, Dst: 5, VNet: 0, Size: 1}
	p2 := &message.Packet{ID: 2, Dst: 5, VNet: 1, Size: 1}
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p1}, 10)
	m.ReceiveFlit(3, int8(cfg.VCIndex(1, 0)), message.Flit{Pkt: p2}, 10)
	m.Step(11)
	if m.StagedCount(1) != 2 {
		t.Fatalf("staged %d flits in one cycle, want 2 (full crossbar speedup)", m.StagedCount(1))
	}
	m.Step(12)
	m.Step(13)
	if len(sink.flits) != 2 {
		t.Fatalf("drained %d flits, want 2", len(sink.flits))
	}
	if sink.flits[0].cycle != 14 || sink.flits[1].cycle != 15 {
		t.Fatalf("link serialization wrong: arrivals %d, %d; want 14, 15", sink.flits[0].cycle, sink.flits[1].cycle)
	}
}

// TestOQWormholeBody: a multi-flit packet streams through the staging
// FIFO one flit per cycle on the same downstream VC, with the body flit
// taking the already-allocated (VCActive) path through the crossbar.
func TestOQWormholeBody(t *testing.T) {
	m, sink, _ := testMicroarch(t, router.ArchOQ, 1)
	p := pkt(2)
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 0}, 10)
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: 1}, 10)
	for c := sim.Cycle(10); c < 16; c++ {
		m.Step(c)
	}
	if len(sink.flits) != 2 {
		t.Fatalf("sent %d flits, want 2", len(sink.flits))
	}
	if sink.flits[0].vc != sink.flits[1].vc {
		t.Fatal("packet split across downstream VCs")
	}
	if len(sink.credits) != 2 || sink.credits[0].free || !sink.credits[1].free {
		t.Fatalf("upstream credits wrong: %+v", sink.credits)
	}
}

// TestOQNoCreditNoStage: with no downstream credit the front stays in its
// input VC (where UPP's stall detection can see it) instead of staging.
func TestOQNoCreditNoStage(t *testing.T) {
	m, sink, _ := testMicroarch(t, router.ArchOQ, 1)
	m.Out[1].Credits[0] = 0
	p := pkt(1)
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	for c := sim.Cycle(10); c < 20; c++ {
		m.Step(c)
	}
	if m.StagedCount(1) != 0 || len(sink.flits) != 0 {
		t.Fatal("staged a flit without downstream credit")
	}
	m.ReceiveCredit(1, 0, 1, false)
	m.Step(21)
	m.Step(22)
	if len(sink.flits) != 1 {
		t.Fatal("flit stuck after credit arrived")
	}
}

// TestOQLocalEjection: the local port has no staging FIFO — ejection goes
// straight from the input VC to the NI, gated by ejection admission.
func TestOQLocalEjection(t *testing.T) {
	m, _, local := testMicroarch(t, router.ArchOQ, topology.LocalPort)
	local.accept = false
	p := pkt(1)
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	for c := sim.Cycle(10); c < 15; c++ {
		m.Step(c)
	}
	if len(local.got) != 0 {
		t.Fatal("head ejected despite a full ejection queue")
	}
	local.accept = true
	m.Step(16)
	if len(local.got) != 1 {
		t.Fatal("flit not ejected after queue freed")
	}
	if m.PortSent(topology.LocalPort) != 1 {
		t.Fatal("ejection not counted on the local port")
	}
}

// TestVOQSingleFlitTiming: with no contention the virtual-output-queued
// pipeline is cycle-identical to iq — BW at 10, SA+ST at 11, arrival at 13.
func TestVOQSingleFlitTiming(t *testing.T) {
	m, sink, _ := testMicroarch(t, router.ArchVOQ, 1)
	p := pkt(1)
	m.ReceiveFlit(2, 0, message.Flit{Pkt: p}, 10)
	m.Step(10)
	if len(sink.flits) != 0 {
		t.Fatal("flit moved in its buffer-write cycle")
	}
	m.Step(11)
	if len(sink.flits) != 1 || sink.flits[0].cycle != 13 {
		t.Fatalf("voq timing diverged from iq: %+v", sink.flits)
	}
}

// TestVOQEjectionFirst: outputs are served in ascending port order, local
// ejection first — when one input port holds both an ejecting head and a
// through-traffic head, the ejection wins the input's crossbar slot (the
// consumption-first lever of arXiv 2303.10526).
func TestVOQEjectionFirst(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	sink := &mockSink{}
	local := &mockLocal{accept: true}
	route := func(cur topology.NodeID, in topology.PortID, p *message.Packet) (topology.PortID, error) {
		if p.VNet == message.VNetRequest {
			return 1, nil
		}
		return topology.LocalPort, nil
	}
	m := mustNew(t, router.ArchVOQ, topo.Node(0), router.DefaultConfig(), sink, local, route)
	cfg := m.Cfg
	through := &message.Packet{ID: 1, Dst: 5, VNet: message.VNetRequest, Size: 1}
	eject := &message.Packet{ID: 2, Dst: 0, VNet: message.VNetResponse, Size: 1}
	m.ReceiveFlit(2, 0, message.Flit{Pkt: through}, 10)
	m.ReceiveFlit(2, int8(cfg.VCIndex(message.VNetResponse, 0)), message.Flit{Pkt: eject}, 10)
	m.Step(11)
	if len(local.got) != 1 {
		t.Fatalf("ejection not served first: local got %d flits", len(local.got))
	}
	if len(sink.flits) != 0 {
		t.Fatal("one input port granted twice in one cycle")
	}
	m.Step(12)
	if len(sink.flits) != 1 {
		t.Fatal("through-traffic head starved after the ejection drained")
	}
}
