package network

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	return MustNew(topology.MustBuild(topology.BaselineConfig()), DefaultConfig(), None{})
}

// TestCancelReservationZerosVacatedTail: the CancelReservation splice
// must not leave a stale duplicate of the last waiter in the slice's
// slack capacity.
func TestCancelReservationZerosVacatedTail(t *testing.T) {
	n := testNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	const vnet = message.VNetRequest
	ni.ejOccupied[vnet] = ni.ejCap // no free entries: reservations must wait
	for id := uint64(1); id <= 3; id++ {
		ni.RequestReservation(vnet, id, 0)
	}
	if len(ni.waiters) != 3 {
		t.Fatalf("expected 3 queued waiters, got %d", len(ni.waiters))
	}
	ni.CancelReservation(vnet, 2)
	if len(ni.waiters) != 2 {
		t.Fatalf("expected 2 waiters after cancel, got %d", len(ni.waiters))
	}
	if ni.waiters[0].popupID != 1 || ni.waiters[1].popupID != 3 {
		t.Fatalf("wrong waiters survived: %d, %d", ni.waiters[0].popupID, ni.waiters[1].popupID)
	}
	// Inspect the vacated slot beyond len: it must be zeroed.
	tail := ni.waiters[:3][2]
	if tail != (reservationWaiter{}) {
		t.Fatalf("vacated waiter slot retains state: %+v", tail)
	}
}

// TestConsumeStepZerosVacatedTail: the in-place completion filter must
// zero the slack region, or consumed (and pool-released) packets stay
// referenced until the slice regrows.
func TestConsumeStepZerosVacatedTail(t *testing.T) {
	n := testNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	p1, p2 := &message.Packet{ID: 1}, &message.Packet{ID: 2}
	ni.ejOccupied[p1.VNet] = 2
	ni.complete = append(ni.complete, completed{pkt: p1}, completed{pkt: p2})
	ni.consumeStep(5)
	if len(ni.complete) != 0 {
		t.Fatalf("expected all completions consumed, %d left", len(ni.complete))
	}
	for i, c := range ni.complete[:2] {
		if c.pkt != nil {
			t.Fatalf("slack slot %d retains packet %d", i, c.pkt.ID)
		}
	}
}

// TestGrantWaitersZerosVacatedTail: granting waiters filters the slice
// in place; granted entries must not survive in the slack capacity.
func TestGrantWaitersZerosVacatedTail(t *testing.T) {
	// Grants come back to the scheme as CallReservationGranted calls.
	log := &callLog{}
	n := MustNew(topology.MustBuild(topology.BaselineConfig()), DefaultConfig(), log)
	ni := n.NI(n.Topo.Cores()[0])
	const vnet = message.VNetRequest
	ni.ejOccupied[vnet] = ni.ejCap
	for id := uint64(1); id <= 2; id++ {
		ni.RequestReservation(vnet, id, 0)
	}
	ni.ejOccupied[vnet] = 0 // room appears: both waiters grant this step
	ni.grantWaiters(1)
	if granted := len(log.got); granted != 2 || len(ni.waiters) != 0 {
		t.Fatalf("granted=%d waiters=%d; want 2 and 0", granted, len(ni.waiters))
	}
	for i, d := range log.got {
		want := SchemeCall{Kind: CallReservationGranted, Node: ni.Node, A: uint64(i + 1), B: uint64(vnet)}
		if d.at != 1 || d.call != want {
			t.Fatalf("grant %d delivered as %+v at cycle %d, want %+v at 1", i, d.call, d.at, want)
		}
	}
	for i, w := range ni.waiters[:2] {
		if w != (reservationWaiter{}) {
			t.Fatalf("slack slot %d retains granted waiter %d", i, w.popupID)
		}
	}
	ni.ejReserved[vnet] = 0 // undo the test grants for any later checks
}

func TestPktRing(t *testing.T) {
	var q pktRing
	mk := func(id uint64) *message.Packet { return &message.Packet{ID: id} }
	// Interleave pushes and pops to force wraparound, then growth.
	for id := uint64(1); id <= 4; id++ {
		q.Push(mk(id))
	}
	if q.Pop().ID != 1 || q.Pop().ID != 2 {
		t.Fatal("FIFO order violated")
	}
	for id := uint64(5); id <= 12; id++ { // crosses the initial capacity
		q.Push(mk(id))
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d; want 10", q.Len())
	}
	for want := uint64(3); want <= 12; want++ {
		if got := q.Pop().ID; got != want {
			t.Fatalf("Pop = %d; want %d", got, want)
		}
	}
	if q.Len() != 0 || q.Front() != nil {
		t.Fatal("queue not empty after draining")
	}
	// Every slot must be zeroed — no retained packets.
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("drained ring retains packet %d at slot %d", p.ID, i)
		}
	}
}

// TestPoolingConfigResolution: Config.DisablePool is the only pooling
// switch at this layer; UPP_NOPOOL is resolved into it by
// internal/experiments and not consulted here.
func TestPoolingConfigResolution(t *testing.T) {
	for _, tc := range []struct {
		name, env string
		disable   bool
	}{
		{"default_on", "", false},
		{"config_off", "", true},
		{"env_off", "1", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("UPP_NOPOOL", tc.env)
			cfg := DefaultConfig()
			cfg.DisablePool = tc.disable
			n := MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, None{})
			if n.Pooling() == tc.disable {
				t.Fatalf("Pooling() = %v with DisablePool = %v", n.Pooling(), tc.disable)
			}
			if p := n.AllocPacket(); p.Pooled() == tc.disable {
				t.Fatalf("AllocPacket returned Pooled() = %v with DisablePool = %v", p.Pooled(), tc.disable)
			}
		})
	}
}

// TestReleasedPacketCaughtInFlight: the debug walker and the NI's
// always-on ejection assert must both notice a packet that was released
// while still queued — the canonical reuse-after-release bug.
func TestReleasedPacketCaughtInFlight(t *testing.T) {
	n := testNet(t)
	src := n.Topo.Cores()[0]
	p := n.AllocPacket()
	p.Src = src
	p.Dst = n.Topo.Cores()[1]
	p.Size = 1
	p.Class = message.ClassSyntheticCtrl
	n.NI(src).Enqueue(p, n.Cycle())
	if err := n.CheckNoReleasedInFlight(); err != nil {
		t.Fatalf("clean network reported: %v", err)
	}
	n.releasePacket(p) // simulate a premature release
	if err := n.CheckNoReleasedInFlight(); err == nil {
		t.Fatal("walker missed a released packet in an injection queue")
	}
}
