package experiments

import (
	"testing"

	"uppnoc/internal/coherence"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// checkPoolQuiesced asserts the pool invariants that must hold once a
// network has fully drained: the freelist is structurally sound, every
// packet ever handed out came back, and recycling actually happened (so
// the soak exercised reuse, not just a cold pool).
func checkPoolQuiesced(t *testing.T, n *network.Network) {
	t.Helper()
	pool := n.PacketPool()
	if err := pool.Check(); err != nil {
		t.Fatalf("pool corrupt after drain: %v", err)
	}
	if live := pool.Stats.Live(); live != 0 {
		t.Fatalf("%d packets leaked (gets %d, puts %d)", live, pool.Stats.Gets, pool.Stats.Puts)
	}
	if pool.Stats.Reuses == 0 {
		t.Fatal("pool never recycled a packet — the soak is vacuous")
	}
}

// soakSynthetic runs a synthetic-traffic soak under the given scheme,
// sweeping the in-flight state for released packets every 500 cycles —
// the runtime equivalent of the uppdebug hot asserts, and the check
// that catches a reuse-after-release the moment it happens rather than
// as trace corruption thousands of cycles later.
func soakSynthetic(t *testing.T, sch network.Scheme, rate float64, cycles int) *network.Network {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	n, err := network.New(topo, network.DefaultConfig(), sch)
	if err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, rate, 7)
	for done := 0; done < cycles; done += 500 {
		g.Run(500)
		if err := n.CheckNoReleasedInFlight(); err != nil {
			t.Fatalf("after %d cycles: %v", done+500, err)
		}
	}
	g.SetRate(0)
	if err := n.Drain(60000, 5000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := n.CheckNoReleasedInFlight(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	checkPoolQuiesced(t, n)
	return n
}

// TestPoolSoak is the long-haul generation-safety test: baseline
// synthetic traffic, UPP at an overload rate where the popup protocol
// recycles packets mid-flight, and a full coherence workload — all with
// pooling on, all swept for stale-generation packets. CI runs it under
// -race so the checks double as a data-race probe over the recycled
// storage.
func TestPoolSoak(t *testing.T) {
	cycles := 30000
	scale := 0.1
	if testing.Short() {
		cycles = 6000
		scale = 0.03
	}
	t.Run("baseline", func(t *testing.T) {
		soakSynthetic(t, network.None{}, 0.05, cycles)
	})
	t.Run("upp_overload", func(t *testing.T) {
		upp := core.New(core.DefaultConfig())
		n := soakSynthetic(t, upp, 0.12, cycles)
		if n.Stats.UpwardPackets == 0 {
			t.Fatal("no popups fired; the soak never exercised recycling through the popup protocol")
		}
		if err := upp.UPPStateOK(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("coherence", func(t *testing.T) {
		w, err := coherence.BenchmarkByName("blackscholes")
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.MustBuild(topology.BaselineConfig())
		n, err := network.New(topo, network.DefaultConfig(), core.New(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := coherence.New(n, w.Scale(scale), 99)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckNoReleasedInFlight(); err != nil {
			t.Fatal(err)
		}
		checkPoolQuiesced(t, n)
	})
}
