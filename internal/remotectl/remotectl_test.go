package remotectl_test

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

func rcNet(t *testing.T, vcs int) (*network.Network, *remotectl.Scheme) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Router.VCsPerVNet = vcs
	s := remotectl.New()
	n, err := network.New(topo, cfg, s)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, s
}

// TestRemoteControlDeadlockFree: the workload that wedges the
// recovery-free network drains under remote control's injection isolation.
func TestRemoteControlDeadlockFree(t *testing.T) {
	n, _ := rcNet(t, 1)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
	g.Run(20000)
	g.SetRate(0)
	if err := n.Drain(600000, 60000); err != nil {
		t.Fatalf("remote control wedged: %v", err)
	}
	if n.Stats.InjectionHolds == 0 {
		t.Fatal("expected injection-control holds under load")
	}
}

// TestHandshakeLatency: a single inter-chiplet packet pays at least the
// 2-cycle reservation round trip before injecting.
func TestHandshakeLatency(t *testing.T) {
	n, _ := rcNet(t, 1)
	cores := n.Topo.Cores()
	src, dst := cores[0], cores[len(cores)-1]
	p := &message.Packet{Src: src, Dst: dst, VNet: message.VNetRequest, Size: 1}
	n.NI(src).Enqueue(p, 0)
	if err := n.Drain(2000, 500); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if hold := p.InjectCycle - p.BirthCycle; hold < 2 {
		t.Fatalf("expected >=2 cycles of injection hold, got %d", hold)
	}
	// An intra-chiplet packet is not held.
	p2 := &message.Packet{Src: cores[0], Dst: cores[1], VNet: message.VNetRequest, Size: 1}
	n.NI(cores[0]).Enqueue(p2, n.Cycle())
	if err := n.Drain(2000, 500); err != nil {
		t.Fatalf("drain2: %v", err)
	}
	if hold := p2.InjectCycle - p2.BirthCycle; hold > 1 {
		t.Fatalf("intra-chiplet packet held %d cycles", hold)
	}
}

// TestCrossingDelayPinned pins the network latency of three lone packets:
// an inter-chiplet packet pays the boundary-crossing delay at each boundary
// router it enters, an intra-chiplet packet whose route passes a boundary
// router pays none, and the same inter-chiplet packet under None pays
// neither the delay nor the slot detour.
func TestCrossingDelayPinned(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cores := topo.Cores()
	ch := &topo.Chiplets[0]
	// XY routing from the boundary router's row neighbour to its column
	// neighbour turns at the boundary router.
	b := topo.Node(ch.Boundary[0])
	step := func(v int) int {
		if v == 0 {
			return 1
		}
		return v - 1
	}
	src, dst := ch.RouterAt(step(b.X), b.Y), ch.RouterAt(b.X, step(b.Y))
	latency := func(scheme network.Scheme, src, dst topology.NodeID) sim.Cycle {
		n := network.MustNew(topology.MustBuild(topology.BaselineConfig()), network.DefaultConfig(), scheme)
		p := &message.Packet{Src: src, Dst: dst, VNet: message.VNetResponse, Size: message.DataPacketFlits}
		n.NI(src).Enqueue(p, 0)
		if err := n.Drain(2000, 500); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return p.EjectCycle - p.InjectCycle
	}
	for _, c := range []struct {
		name     string
		scheme   network.Scheme
		src, dst topology.NodeID
		want     sim.Cycle
	}{
		{"inter-chiplet", remotectl.New(), cores[0], cores[len(cores)-1], 31},
		{"intra-chiplet via boundary", remotectl.New(), src, dst, 13},
		{"inter-chiplet under none", network.None{}, cores[0], cores[len(cores)-1], 28},
	} {
		if got := latency(c.scheme, c.src, c.dst); got != c.want {
			t.Errorf("%s (%d->%d): network latency %d, want %d", c.name, c.src, c.dst, got, c.want)
		}
	}
}

// TestSlotsReturn: every slot of every boundary router is free after the
// network drains: no request queued, no grant held, no slot live.
func TestSlotsReturn(t *testing.T) {
	n, s := rcNet(t, 4)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.08, 3)
	g.Run(5000)
	g.SetRate(0)
	if err := n.Drain(100000, 20000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if queued, granted, live := s.Load(); queued+granted+live != 0 {
		t.Fatalf("after drain: %d requests queued, %d grants, %d live slots", queued, granted, live)
	}
}

// TestPermissionTreeRTT: the reservation round trip scales with the
// source's distance from its egress boundary in the hard-wired tree.
func TestPermissionTreeRTT(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	s := remotectl.New()
	n := network.MustNew(topo, network.DefaultConfig(), s)
	// Two sources in chiplet 0 bound to the same boundary at different
	// distances; same destination in chiplet 3.
	ch0 := topo.Chiplets[0]
	var near, far topology.NodeID = topology.InvalidNode, topology.InvalidNode
	b := ch0.Boundary[0]
	bn := topo.Node(b)
	for _, id := range ch0.Routers {
		nd := topo.Node(id)
		if nd.BoundBoundary != b || id == b {
			continue
		}
		d := abs(nd.X-bn.X) + abs(nd.Y-bn.Y)
		if d == 1 && near == topology.InvalidNode {
			near = id
		}
		if d >= 2 {
			far = id
		}
	}
	if near == topology.InvalidNode || far == topology.InvalidNode {
		t.Skip("binding layout lacks near/far pair for this seed")
	}
	dst := topo.Chiplets[3].Routers[5]
	pNear := &message.Packet{Src: near, Dst: dst, VNet: message.VNetRequest, Size: 1}
	pFar := &message.Packet{Src: far, Dst: dst, VNet: message.VNetRequest, Size: 1}
	n.NI(near).Enqueue(pNear, 0)
	n.NI(far).Enqueue(pFar, 0)
	if err := n.Drain(5000, 1000); err != nil {
		t.Fatal(err)
	}
	holdNear := pNear.InjectCycle - pNear.BirthCycle
	holdFar := pFar.InjectCycle - pFar.BirthCycle
	if holdFar <= holdNear {
		t.Fatalf("far source held %d cycles, near %d — tree RTT not applied", holdFar, holdNear)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
