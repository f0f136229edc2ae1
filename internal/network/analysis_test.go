package network_test

import (
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestDeadlockCertificate extracts the buffer dependency cycle from a
// wedged network and validates the paper's theory (Sec. IV-A): the cycle
// is integration-induced — it spans the interposer and chiplets — and it
// contains a stalled upward packet. The certificate also lies on the static
// graph: projected onto channels (node, input port), every wait of one VC
// on the next is a dependency routing.BuildCDG found for the same routing,
// and one of them is upward, the kind CutUpward deletes. A router and a
// route walk that disagree about a hop fail here.
func TestDeadlockCertificate(t *testing.T) {
	found := 0
	for seed := uint64(40); seed < 48 && found < 3; seed++ {
		topo := topology.MustBuild(topology.BaselineConfig())
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.12, seed)
		g.Run(20000)
		g.SetRate(0)
		if err := n.Drain(30000, 3000); err == nil {
			continue // no wedge with this seed
		}
		c := n.FindDependencyCycle()
		if c == nil {
			t.Fatalf("seed %d: wedged but no dependency cycle found", seed)
		}
		found++
		if !c.SpansLayers() {
			t.Fatalf("seed %d: deadlock cycle confined to one layer: %s", seed, c)
		}
		if !c.InvolvesUpwardPacket() {
			t.Fatalf("seed %d: integration-induced cycle without an upward packet — the paper's key observation would be violated: %s", seed, c)
		}
		cdg, err := routing.BuildCDG(n.Hier(), routing.DefaultPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		upward := false
		for i, u := range c.VCs {
			w := c.VCs[(i+1)%len(c.VCs)]
			node, base := &topo.Nodes[u.Node], cdg.Base[u.Node]
			to := cdg.Base[w.Node] + int32(w.Port)
			o := 0
			for o < len(node.Ports) && cdg.Peer[base+int32(o)] != to {
				o++
			}
			if o == len(node.Ports) || cdg.Used[base+int32(u.Port)]&(1<<o) == 0 {
				t.Fatalf("seed %d: certificate edge %s -> %s is no dependency of the static graph: %s", seed, u, w, c)
			}
			upward = upward || node.Chiplet == topology.InterposerChiplet && node.Ports[o].Dir == topology.Up
		}
		if !upward {
			t.Fatalf("seed %d: certificate has no upward dependency on the static graph: %s", seed, c)
		}
		if len(c.Chiplets()) < 2 {
			t.Logf("seed %d: cycle touches %v (single chiplet + interposer)", seed, c.Chiplets())
		}
		t.Logf("seed %d certificate: %s", seed, c)
	}
	if found == 0 {
		t.Fatal("no deadlock formed across seeds; raise the load")
	}
}

// TestNoCycleAtLowLoad: the analyzer reports nil on a healthy network.
func TestNoCycleAtLowLoad(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.01, 1)
	g.Run(3000)
	g.SetRate(0)
	if err := n.Drain(50000, 10000); err != nil {
		t.Fatal(err)
	}
	if c := n.FindDependencyCycle(); c != nil {
		t.Fatalf("cycle on an empty network: %s", c)
	}
}

// TestDependencyCycleDeterministic: a wedged network holds several
// dependency cycles (the cmd/deadlock workload: three runs used to print
// three different chains), and the certificate must not depend on map
// iteration order — 20 extractions from one network agree, and so do two
// networks built independently at the same seed.
func TestDependencyCycleDeterministic(t *testing.T) {
	wedged := func() *network.Network {
		n := network.MustNew(topology.MustBuild(topology.BaselineConfig()), network.DefaultConfig(), network.None{})
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 42)
		g.Run(30000)
		g.SetRate(0)
		if err := n.Drain(50000, 3000); err == nil {
			t.Fatal("the cmd/deadlock workload no longer wedges")
		}
		return n
	}
	a, b := wedged(), wedged()
	want := a.FindDependencyCycle()
	if want == nil {
		t.Fatal("wedged but no dependency cycle found")
	}
	for i := 0; i < 20; i++ {
		if got := a.FindDependencyCycle().String(); got != want.String() {
			t.Fatalf("call %d returned a different certificate:\n%s\nfirst:\n%s", i, got, want)
		}
	}
	if got := b.FindDependencyCycle().String(); got != want.String() {
		t.Fatalf("a second network at the same seed returned a different certificate:\n%s\nfirst:\n%s", got, want)
	}
}
