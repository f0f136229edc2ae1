package core_test

import (
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

func uppNet(t *testing.T, vcs int, seed uint64) (*network.Network, *core.UPP) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Router.VCsPerVNet = vcs
	cfg.Seed = seed
	u := core.New(core.DefaultConfig())
	n, err := network.New(topo, cfg, u)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, u
}

// TestDeadlockFormsWithoutRecovery validates the paper's premise: with
// fully adaptive (static-binding) routing and no deadlock handling,
// integration-induced deadlocks form under load and the network wedges.
func TestDeadlockFormsWithoutRecovery(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
	g.Run(30000)
	g.SetRate(0)
	if err := n.Drain(50000, 3000); err == nil {
		t.Fatal("expected a deadlock without recovery, but the network drained")
	}
}

// TestUPPRecoversFromDeadlock is the headline behaviour: the identical
// workload that wedges the recovery-free network drains completely under
// UPP, via detected upward packets.
func TestUPPRecoversFromDeadlock(t *testing.T) {
	n, u := uppNet(t, 1, 1)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
	g.Run(30000)
	g.SetRate(0)
	if err := n.Drain(400000, 50000); err != nil {
		t.Fatalf("UPP failed to recover: %v (popups active %d, stats %+v)", err, u.ActivePopups(), n.Stats)
	}
	if n.Stats.UpwardPackets == 0 {
		t.Fatal("drained without any upward packet detection — deadlocks never formed?")
	}
	if u.ActivePopups() != 0 {
		t.Fatalf("%d popups still active after quiesce", u.ActivePopups())
	}
	if err := u.UPPStateOK(); err != nil {
		t.Fatal(err)
	}
	t.Logf("upward=%d started=%d cancelled=%d completed=%d signals=%d",
		n.Stats.UpwardPackets, n.Stats.PopupsStarted, n.Stats.PopupsCancelled,
		n.Stats.PopupsCompleted, n.Stats.SignalsSent)
}

// TestUPPHighLoadManySeeds stresses recovery across seeds and VC counts.
func TestUPPHighLoadManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, vcs := range []int{1, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			n, u := uppNet(t, vcs, seed)
			g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.15, seed*977)
			g.Run(12000)
			g.SetRate(0)
			if err := n.Drain(400000, 50000); err != nil {
				t.Fatalf("vcs=%d seed=%d: %v", vcs, seed, err)
			}
			if u.ActivePopups() != 0 {
				t.Fatalf("vcs=%d seed=%d: %d popups leaked", vcs, seed, u.ActivePopups())
			}
			if err := u.UPPStateOK(); err != nil {
				t.Fatalf("vcs=%d seed=%d: %v", vcs, seed, err)
			}
		}
	}
}

// TestUPPManyVCsPerPort: router.Config accepts up to 16 VCs per VNet (48
// per port), whose input-VC indices overflow Fig. 4's 4-bit field. The
// req/stop width widens that field with the VC count and is checked once
// at Attach, so such a network must recover from its deadlocks by popups
// like any other, not fail mid-run.
func TestUPPManyVCsPerPort(t *testing.T) {
	for _, tc := range []struct {
		vcs  int
		rate float64
	}{{6, 0.5}, {8, 0.3}, {16, 0.3}} {
		n, u := uppNet(t, tc.vcs, 1)
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, tc.rate, 42)
		g.Run(6000)
		g.SetRate(0)
		if err := n.Drain(400000, 50000); err != nil {
			t.Fatalf("vcs=%d: %v", tc.vcs, err)
		}
		if n.Stats.PopupsCompleted == 0 {
			t.Fatalf("vcs=%d: no popup completed (stats %+v); the run never exercised recovery", tc.vcs, n.Stats)
		}
		if err := u.UPPStateOK(); err != nil {
			t.Fatalf("vcs=%d: %v", tc.vcs, err)
		}
	}
}

// TestUPPTransparentAtLowLoad: when the network is free of deadlocks, UPP
// must not perturb packets (recovery frameworks cost nothing when idle).
func TestUPPTransparentAtLowLoad(t *testing.T) {
	n, u := uppNet(t, 4, 9)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.02, 5)
	g.Run(5000)
	g.SetRate(0)
	if err := n.Drain(20000, 3000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.Stats.PopupsStarted != 0 && n.Stats.PopupsCompleted != n.Stats.PopupsStarted {
		t.Fatalf("popup bookkeeping mismatch: %+v", n.Stats)
	}
	_ = u
}
