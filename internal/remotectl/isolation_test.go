package remotectl_test

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// TestIsolationOfIntraChipletTraffic exercises remote control's core
// claim: inter-chiplet packets, parked in boundary buffers, cannot block
// intra-chiplet packets. We flood chiplet 0 with cross-chiplet traffic
// (throttled by injection control) and verify sparse intra-chiplet probes
// still flow with bounded latency.
func TestIsolationOfIntraChipletTraffic(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	s := remotectl.New()
	n := network.MustNew(topo, network.DefaultConfig(), s)
	ch0 := topo.Chiplets[0].Routers
	ch3 := topo.Chiplets[3].Routers
	rng := sim.NewRNG(7)

	var probes []*message.Packet
	for cycle := 0; cycle < 30000; cycle++ {
		// Heavy cross-chiplet flood from chiplet 0.
		for i := 0; i < 4; i++ {
			src := ch0[rng.Intn(len(ch0))]
			dst := ch3[rng.Intn(len(ch3))]
			if n.NI(src).InjQueueLen(message.VNetResponse) < 4 {
				p := &message.Packet{Src: src, Dst: dst, VNet: message.VNetResponse, Size: 5}
				n.NI(src).Enqueue(p, n.Cycle())
			}
		}
		// A sparse intra-chiplet probe every 100 cycles.
		if cycle%100 == 0 {
			src := ch0[rng.Intn(len(ch0))]
			dst := ch0[rng.Intn(len(ch0))]
			if src != dst {
				p := &message.Packet{Src: src, Dst: dst, VNet: message.VNetRequest, Size: 1}
				n.NI(src).Enqueue(p, n.Cycle())
				probes = append(probes, p)
			}
		}
		n.Step()
	}
	if err := n.Drain(2_000_000, 100000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	delivered := 0
	var worst sim.Cycle
	for _, p := range probes {
		if p.EjectCycle == 0 {
			continue
		}
		delivered++
		if lat := p.EjectCycle - p.InjectCycle; lat > worst {
			worst = lat
		}
	}
	if delivered != len(probes) {
		t.Fatalf("only %d of %d probes delivered", delivered, len(probes))
	}
	// Intra-chiplet paths are <= 6 hops; even with local contention a
	// probe must never wait behind the parked inter-chiplet flood.
	if worst > 300 {
		t.Fatalf("intra-chiplet probe network latency reached %d cycles — isolation broken", worst)
	}
	t.Logf("%d probes, worst network latency %d cycles, injection holds %d",
		delivered, worst, n.Stats.InjectionHolds)
}
