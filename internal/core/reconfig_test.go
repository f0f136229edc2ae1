package core_test

import (
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestDynamicReconfiguration plays out the Sec. III-C flexibility
// scenario: a running UPP system loses links (faults / power gating),
// quiesces, rebuilds its local routing as up*/down*, and keeps operating
// with recovery intact — the reconfiguration the baselines cannot do
// (composable's search is design-time; remote control's permission tree
// is hard-wired).
func TestDynamicReconfiguration(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.DefaultConfig())
	n := network.MustNew(topo, network.DefaultConfig(), u)

	// Phase 1: healthy operation under XY.
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.05, 3)
	g.Run(8000)
	g.SetRate(0)
	if err := n.Drain(100000, 20000); err != nil {
		t.Fatalf("phase 1 drain: %v", err)
	}
	phase1 := n.Stats.ConsumedPackets

	// Reconfiguration: links fail; rebuild routing as up*/down* on the
	// degraded topology and install it as a new routing epoch. The network
	// is quiesced, so no old-epoch packet is left and the transition
	// finishes at once.
	if _, err := topo.InjectFaults(8, 77); err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(topo)
	if err != nil {
		t.Fatalf("rebuild routing: %v", err)
	}
	n.BeginRouteTransition(ud, false)
	n.FinishRouteTransition()

	// Phase 2: operation continues on the degraded system.
	g.SetRate(0.05)
	g.Run(8000)
	g.SetRate(0)
	if err := n.Drain(300000, 50000); err != nil {
		t.Fatalf("phase 2 drain: %v", err)
	}
	if n.Stats.ConsumedPackets <= phase1 {
		t.Fatal("no traffic delivered after reconfiguration")
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if err := u.UPPStateOK(); err != nil {
		t.Fatal(err)
	}
	t.Logf("delivered %d packets before and %d after losing 8 links",
		phase1, n.Stats.ConsumedPackets-phase1)
}
