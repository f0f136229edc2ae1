package core

import (
	"bytes"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestSnapshotCarriesPendingReservation: a UPP_req waiting at a full
// destination NI is a (vnet, popup ID) pair in the NI's section and
// nothing else — no callback to rebind. A snapshot taken while one waits
// restores into a twin that writes the same bytes, grants the reservation
// through OnScheduledCall when an entry frees up, and finishes with the
// uninterrupted run's statistics.
func TestSnapshotCarriesPendingReservation(t *testing.T) {
	// Slow PEs keep ejection queues full, so reservations have to wait;
	// the consumer is a function of the cycle alone, so it needs no state
	// in the snapshot.
	build := func() (*network.Network, *UPP, *traffic.Generator) {
		cfg := network.DefaultConfig()
		cfg.Router.VCsPerVNet = 1
		cfg.Seed = 3
		u := New(DefaultConfig())
		n := network.MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, u)
		for _, ni := range n.NIs {
			ni.Consume = func(_ *message.Packet, cycle sim.Cycle) bool { return cycle%64 == 0 }
		}
		return n, u, traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, 99)
	}
	waiting := func(u *UPP) bool {
		for _, p := range u.popups {
			if p.resRequested && !p.ackLaunched {
				return true
			}
		}
		return false
	}
	n, u, g := build()
	for !waiting(u) {
		if n.Cycle() > 20000 {
			t.Fatal("no reservation ever had to wait")
		}
		g.Tick(n.Cycle())
		n.Step()
	}
	var first bytes.Buffer
	if err := n.WriteSnapshot(&first, g); err != nil {
		t.Fatal(err)
	}

	m, mu, mg := build()
	if err := m.ReadSnapshot(first.Bytes(), mg); err != nil {
		t.Fatal(err)
	}
	if !waiting(mu) {
		t.Fatal("restored scheme has no popup waiting on a reservation")
	}
	var second bytes.Buffer
	if err := m.WriteSnapshot(&second, mg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-written snapshot differs from the one restored")
	}
	granted := m.Stats.ReservationsGranted
	for _, run := range []struct {
		n *network.Network
		g *traffic.Generator
	}{{n, g}, {m, mg}} {
		run.g.Run(2000)
		run.g.SetRate(0)
		if err := run.n.Drain(400000, 50000); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.ReservationsGranted == granted {
		t.Fatal("the restored waiter was never granted")
	}
	if n.Stats != m.Stats || n.Cycle() != m.Cycle() {
		t.Fatalf("runs diverged after the restore:\noriginal %+v\nrestored %+v", n.Stats, m.Stats)
	}
	if err := mu.UPPStateOK(); err != nil {
		t.Fatal(err)
	}
}
