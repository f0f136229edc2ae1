package core_test

import (
	"testing"

	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestHeterogeneousSystemAllSchemes runs a mixed-size chiplet system (the
// modularity scenario of Sec. III-A) under every scheme: the baselines
// must avoid deadlock, UPP must recover from any that form, and every
// resource must return.
func TestHeterogeneousSystemAllSchemes(t *testing.T) {
	build := func() *topology.Topology {
		topo, err := topology.BuildHetero(topology.HeteroExampleConfig())
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	schemes := []struct {
		name string
		make func(*topology.Topology) (network.Scheme, error)
	}{
		{"upp", func(*topology.Topology) (network.Scheme, error) {
			return core.New(core.DefaultConfig()), nil
		}},
		{"composable", func(tp *topology.Topology) (network.Scheme, error) {
			return composable.BuildTables(tp)
		}},
		{"remote_control", func(*topology.Topology) (network.Scheme, error) {
			return remotectl.New(), nil
		}},
	}
	for _, sc := range schemes {
		topo := build()
		scheme, err := sc.make(topo)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		n := network.MustNew(topo, network.DefaultConfig(), scheme)
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.08, 19)
		g.Run(15000)
		g.SetRate(0)
		if err := n.Drain(500000, 60000); err != nil {
			t.Fatalf("%s wedged on the heterogeneous system: %v", sc.name, err)
		}
		if err := n.CheckQuiescent(); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		t.Logf("%s: delivered %d packets (upward %d)", sc.name, n.Stats.ConsumedPackets, n.Stats.UpwardPackets)
	}
}

// TestHeterogeneousDeadlockWithoutRecovery: the unprotected heterogeneous
// system also wedges — integration-induced deadlocks are not an artifact
// of the homogeneous baseline.
func TestHeterogeneousDeadlockWithoutRecovery(t *testing.T) {
	topo, err := topology.BuildHetero(topology.HeteroExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.15, 19)
	g.Run(30000)
	g.SetRate(0)
	if err := n.Drain(50000, 5000); err == nil {
		t.Skip("no deadlock formed on this workload (acceptable; UPP path covered above)")
	}
	c := n.FindDependencyCycle()
	if c == nil {
		t.Fatal("wedged without a dependency cycle")
	}
	if !c.InvolvesUpwardPacket() {
		t.Fatalf("heterogeneous deadlock without an upward packet: %s", c)
	}
}

// TestStarSystem: the passive-substrate star topology of Sec. VI-B — the
// central hub chiplet plays the interposer's role, and UPP applies
// unchanged.
func TestStarSystem(t *testing.T) {
	topo := topology.MustBuild(topology.StarConfig())
	u := core.New(core.DefaultConfig())
	n := network.MustNew(topo, network.DefaultConfig(), u)
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.06, 21)
	g.Run(15000)
	g.SetRate(0)
	if err := n.Drain(500000, 60000); err != nil {
		t.Fatalf("star system wedged under UPP: %v", err)
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	t.Logf("star system: %d packets delivered, %d popups", n.Stats.ConsumedPackets, n.Stats.PopupsCompleted)
}
