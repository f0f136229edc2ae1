package network_test

import (
	"testing"
	"testing/quick"

	"uppnoc/internal/core"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// checkQuiescentInvariants asserts that a drained network is pristine.
func checkQuiescentInvariants(t *testing.T, n *network.Network) {
	t.Helper()
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCreditConservationAfterLoad: run a burst through the recovery-free
// network at a safe load, drain, and check every resource came back.
func TestCreditConservationAfterLoad(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.03, 12)
	g.Run(8000)
	g.SetRate(0)
	if err := n.Drain(100000, 20000); err != nil {
		t.Fatal(err)
	}
	checkQuiescentInvariants(t, n)
}

// TestEjectionBackpressure: a consumer that refuses to consume fills the
// ejection queue; heads wait in the network instead of overflowing the NI.
func TestEjectionBackpressure(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	cores := n.Topo.Cores()
	dst := cores[10]
	blocked := true
	n.NI(dst).Consume = func(p *message.Packet, _ int64) bool { return !blocked }
	// Send more packets than the ejection queue holds.
	for i := 0; i < 10; i++ {
		p := &message.Packet{Src: cores[i*2+20], Dst: dst, VNet: message.VNetRequest, Size: 1}
		n.NI(p.Src).Enqueue(p, 0)
	}
	n.Run(3000)
	if consumed := n.Stats.ConsumedPackets; consumed != 0 {
		t.Fatalf("consumed %d packets while blocked", consumed)
	}
	if free := n.NI(dst).FreeEjectionEntries(message.VNetRequest); free != 0 {
		t.Fatalf("ejection queue should be full, %d free", free)
	}
	blocked = false
	if err := n.Drain(50000, 10000); err != nil {
		t.Fatal(err)
	}
	if n.Stats.ConsumedPackets != 10 {
		t.Fatalf("consumed %d of 10", n.Stats.ConsumedPackets)
	}
	checkQuiescentInvariants(t, n)
}

// TestPerPacketFlitOrdering: NIs reassemble exactly Size flits per packet
// (the assembly map would diverge on duplication or loss). Exercised via
// a mixed-size burst between fixed endpoints.
func TestPerPacketFlitOrdering(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Router.VCsPerVNet = 4
	n := network.MustNew(topo, cfg, network.None{})
	cores := n.Topo.Cores()
	want := 0
	for i := 0; i < 40; i++ {
		p := &message.Packet{
			Src:  cores[i%8],
			Dst:  cores[63-(i%5)],
			VNet: message.VNet(i % message.NumVNets),
			Size: 1 + 4*(i%2),
		}
		n.NI(p.Src).Enqueue(p, 0)
		want++
	}
	if err := n.Drain(100000, 20000); err != nil {
		t.Fatal(err)
	}
	if int(n.Stats.ConsumedPackets) != want {
		t.Fatalf("consumed %d of %d", n.Stats.ConsumedPackets, want)
	}
	checkQuiescentInvariants(t, n)
}

// TestMeasurementWindow: latency statistics cover only packets born after
// ResetMeasurement.
func TestMeasurementWindow(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	cores := n.Topo.Cores()
	p1 := &message.Packet{Src: cores[0], Dst: cores[3], VNet: 0, Size: 1}
	n.NI(cores[0]).Enqueue(p1, 0)
	if err := n.Drain(5000, 1000); err != nil {
		t.Fatal(err)
	}
	n.ResetMeasurement()
	if n.Stats.MeasuredPackets != 0 {
		t.Fatal("reset did not clear measured packets")
	}
	p2 := &message.Packet{Src: cores[0], Dst: cores[3], VNet: 0, Size: 1}
	n.NI(cores[0]).Enqueue(p2, n.Cycle())
	if err := n.Drain(5000, 1000); err != nil {
		t.Fatal(err)
	}
	if n.Stats.MeasuredPackets != 1 {
		t.Fatalf("measured %d packets, want 1", n.Stats.MeasuredPackets)
	}
	if n.AvgNetLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
}

// TestRandomBurstsDrain property-checks that arbitrary small bursts drain
// cleanly with all invariants intact (4 VCs avoids deadlock in the
// recovery-free scheme at these sizes).
func TestRandomBurstsDrain(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	err := quick.Check(func(seed uint64, count uint8) bool {
		cfg := network.DefaultConfig()
		cfg.Router.VCsPerVNet = 4
		cfg.Seed = seed
		n := network.MustNew(topo, cfg, network.None{})
		cores := n.Topo.Cores()
		k := int(count%32) + 1
		for i := 0; i < k; i++ {
			s := int(seed>>uint(i%32)) % len(cores)
			if s < 0 {
				s = -s
			}
			d := (s + i + 1) % len(cores)
			p := &message.Packet{Src: cores[s], Dst: cores[d], VNet: message.VNet(i % 3), Size: 1 + 4*(i%2)}
			n.NI(p.Src).Enqueue(p, 0)
		}
		if err := n.Drain(100000, 20000); err != nil {
			return false
		}
		return int(n.Stats.ConsumedPackets) == k
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchemeValidation rejects broken configurations.
func TestConfigValidation(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.EjectionDepth = 0
	if _, err := network.New(topo, cfg, network.None{}); err == nil {
		t.Fatal("accepted zero ejection depth")
	}
	cfg = network.DefaultConfig()
	cfg.Router.BufferDepth = 0
	if _, err := network.New(topo, cfg, network.None{}); err == nil {
		t.Fatal("accepted zero buffer depth")
	}
}

// TestScheduleHorizon: scheduling past the event wheel must fail loudly
// rather than wrap silently.
func TestScheduleHorizon(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-horizon schedule")
		}
	}()
	n.ScheduleCall(n.Cycle()+10_000, network.SchemeCall{})
}

// TestSchedulePast: scheduling in the past must also panic.
func TestSchedulePast(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	n.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past schedule")
		}
	}()
	n.ScheduleCall(n.Cycle(), network.SchemeCall{})
}

// TestWakeInvariant: what the flit-only wake rule rests on holds after
// every cycle of a UPP run past the knee, under adaptive routing so that
// origin routers drain and retire while their popup is still in flight:
// the awake routers are exactly the ones holding flits, and no retired
// router keeps a timeout counter without a popup in flight (drop the
// counter reset from UPP.releaseOrigin and this fails within a few hundred
// cycles). uppdebug builds assert the same inside Step, for every test.
func TestWakeInvariant(t *testing.T) {
	for _, kernel := range []string{network.KernelActive, network.KernelParallel} {
		cfg := network.DefaultConfig()
		cfg.Kernel = kernel
		cfg.Adaptive = true
		n := network.MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, core.New(core.DefaultConfig()))
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.12, 33)
		for i := 0; i < 6000; i++ {
			g.Tick(n.Cycle())
			n.Step()
			if err := n.CheckWakeInvariant(); err != nil {
				t.Fatalf("%s, cycle %d: %v", kernel, n.Cycle(), err)
			}
		}
		if n.Stats.PopupsCompleted == 0 {
			t.Fatalf("%s: no popup completed; the counter half of the invariant was not exercised", kernel)
		}
	}
}
