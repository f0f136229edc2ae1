package core_test

import (
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestAggressiveThresholdFalsePositives: with a hair-trigger threshold,
// ordinary congestion is repeatedly flagged as deadlock. The paper argues
// (Sec. V-A) that false positives are harmless — popups of congested
// packets use idle bandwidth and the UPP_stop path recycles reservations.
// Every resource must still come back.
func TestAggressiveThresholdFalsePositives(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	u := core.New(core.Config{Threshold: 2})
	n := network.MustNew(topo, cfg, u)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.06, 17)
	g.Run(15000)
	g.SetRate(0)
	if err := n.Drain(300000, 50000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.Stats.UpwardPackets == 0 {
		t.Fatal("threshold=2 should flag congestion constantly")
	}
	if n.Stats.PopupsCancelled == 0 {
		t.Fatal("expected UPP_stop cancellations of false positives")
	}
	if u.ActivePopups() != 0 {
		t.Fatalf("%d popups leaked", u.ActivePopups())
	}
	if err := u.UPPStateOK(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	t.Logf("upward=%d started=%d cancelled=%d", n.Stats.UpwardPackets, n.Stats.PopupsStarted, n.Stats.PopupsCancelled)
}

// TestDataPacketPopups: force recovery pressure with data-only (5-flit)
// traffic so popups exercise multi-flit drains, including the
// partly-transmitted wormhole machinery of Sec. V-B3.
func TestDataPacketPopups(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.DefaultConfig())
	n := network.MustNew(topo, network.DefaultConfig(), u)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.2, 29)
	g.SetCtrlFraction(0) // all data packets
	g.Run(20000)
	g.SetRate(0)
	if err := n.Drain(500000, 50000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.Stats.PopupsCompleted == 0 {
		t.Fatal("no popups under all-data overload")
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if err := u.UPPStateOK(); err != nil {
		t.Fatal(err)
	}
}

// TestQuiescenceAfterRecovery: the headline recovery test plus full
// resource accounting.
func TestQuiescenceAfterRecovery(t *testing.T) {
	for _, vcs := range []int{1, 4} {
		topo := topology.MustBuild(topology.BaselineConfig())
		cfg := network.DefaultConfig()
		cfg.Router.VCsPerVNet = vcs
		u := core.New(core.DefaultConfig())
		n := network.MustNew(topo, cfg, u)
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
		g.Run(15000)
		g.SetRate(0)
		if err := n.Drain(400000, 50000); err != nil {
			t.Fatalf("vcs=%d: %v", vcs, err)
		}
		if err := n.CheckQuiescent(); err != nil {
			t.Fatalf("vcs=%d: %v", vcs, err)
		}
	}
}

// TestUpwardPacketsAreResponseHeavy: under the synthetic mix, data packets
// ride VNet 2; popup bookkeeping must match per-VNet token accounting
// (indirectly validated through the state checker after heavy load on all
// three VNets).
func TestAllVNetsRecover(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.DefaultConfig())
	n := network.MustNew(topo, network.DefaultConfig(), u)
	cores := topo.Cores()
	// Saturating bursts on every VNet simultaneously.
	for round := 0; round < 300; round++ {
		for i := 0; i < 16; i++ {
			src := cores[(round+i*4)%len(cores)]
			dst := cores[(round*7+i*11+31)%len(cores)]
			if src == dst {
				continue
			}
			p := &message.Packet{Src: src, Dst: dst, VNet: message.VNet(i % 3), Size: 1 + 4*(i%2)}
			n.NI(src).Enqueue(p, n.Cycle())
		}
		n.Step()
	}
	if err := n.Drain(500000, 50000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if err := u.UPPStateOK(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectionRequiresThresholdDwell: a single briefly-blocked upward
// packet below the threshold must not trigger a popup.
func TestDetectionRequiresThresholdDwell(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.Config{Threshold: 5000})
	n := network.MustNew(topo, network.DefaultConfig(), u)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.04, 3)
	g.Run(8000)
	g.SetRate(0)
	if err := n.Drain(100000, 20000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.Stats.UpwardPackets != 0 {
		t.Fatalf("threshold=5000 flagged %d upward packets at light load", n.Stats.UpwardPackets)
	}
}

// TestConservationDuringRecovery: the credit/buffer conservation law must
// hold at every instant even while popups pop flits out of buffers,
// force-release diverted VCs and eject through reserved entries.
func TestConservationDuringRecovery(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.DefaultConfig())
	n := network.MustNew(topo, network.DefaultConfig(), u)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.11, 42)
	for i := 0; i < 25000; i++ {
		g.Tick(n.Cycle())
		n.Step()
		if i%97 == 0 {
			if err := n.CheckConservation(); err != nil {
				t.Fatalf("cycle %d (popups started %d): %v", i, n.Stats.PopupsStarted, err)
			}
		}
	}
	if n.Stats.PopupsStarted == 0 {
		t.Fatal("no recovery activity — the test did not exercise the popup path")
	}
}

// assertUPPStats checks the cross-counter invariants of the protocol
// after a quiesced run:
//
//	upward packets = popups started + popups cancelled
//	popups completed = popups started (every accepted popup finishes)
//	reservations granted >= popups started (cancelled popups may also
//	  have been granted before their stop landed)
func assertUPPStats(t *testing.T, n *network.Network) {
	t.Helper()
	s := n.Stats
	if s.UpwardPackets != s.PopupsStarted+s.PopupsCancelled {
		t.Fatalf("upward %d != started %d + cancelled %d", s.UpwardPackets, s.PopupsStarted, s.PopupsCancelled)
	}
	if s.PopupsCompleted != s.PopupsStarted {
		t.Fatalf("completed %d != started %d", s.PopupsCompleted, s.PopupsStarted)
	}
	if s.ReservationsGranted < s.PopupsStarted {
		t.Fatalf("granted %d < started %d", s.ReservationsGranted, s.PopupsStarted)
	}
}

// TestProtocolCounterInvariants runs a recovery-heavy workload and checks
// the cross-counter accounting.
func TestProtocolCounterInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		topo := topology.MustBuild(topology.BaselineConfig())
		u := core.New(core.DefaultConfig())
		n := network.MustNew(topo, network.DefaultConfig(), u)
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.12, seed*131)
		g.Run(12000)
		g.SetRate(0)
		if err := n.Drain(400000, 50000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertUPPStats(t, n)
		if err := u.UPPStateOK(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
