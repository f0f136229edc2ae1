package network

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// callLog is a scheme that does nothing but log the scheduled calls it is
// handed, with their delivery cycles.
type callLog struct {
	BaseScheme
	got []deliveredCall
}

type deliveredCall struct {
	at   sim.Cycle
	call SchemeCall
}

func (*callLog) Name() string { return "call_log" }
func (c *callLog) OnScheduledCall(sc SchemeCall, cycle sim.Cycle) {
	c.got = append(c.got, deliveredCall{cycle, sc})
}

// wheelKinds reports which event kinds are resident in the wheel.
func wheelKinds(n *Network) map[uint8]int {
	kinds := map[uint8]int{}
	for si := range n.wheel {
		for _, e := range n.wheel[si] {
			kinds[e.kind]++
		}
	}
	return kinds
}

// loadedWheelNet builds a network stopped at a cycle where the event
// wheel holds all three event kinds: flits and credits from real traffic,
// and scheme calls (one carrying a flit) scheduled across several slots.
func loadedWheelNet(t *testing.T) (*Network, *callLog) {
	t.Helper()
	log := &callLog{}
	n := MustNew(topology.MustBuild(topology.BaselineConfig()), DefaultConfig(), log)
	cores := n.Topo.Cores()
	for i, src := range cores {
		p := n.AllocPacket()
		p.Src, p.Dst = src, cores[(i+7)%len(cores)]
		p.Size, p.Class, p.VNet = message.DataPacketFlits, message.ClassSyntheticData, message.VNetResponse
		n.NI(src).Enqueue(p, n.Cycle())
	}
	n.Run(12)
	payload := n.AllocPacket()
	payload.ID, payload.Src, payload.Dst, payload.Size = n.NewPacketID(), cores[0], cores[1], 3
	n.ScheduleCall(n.Cycle()+1, SchemeCall{Kind: 1, Node: cores[2], A: 7, B: 1 << 40, Hop: 3})
	n.ScheduleCall(n.Cycle()+1, SchemeCall{Kind: 2, Node: cores[3], A: 8})
	n.ScheduleCall(n.Cycle()+9, SchemeCall{Kind: 4, Node: -1, Flit: message.Flit{Pkt: payload, Seq: 2}, HasFlit: true})
	n.ScheduleCall(n.Cycle()+wheelSize-1, SchemeCall{Kind: 255, Hop: 4 * int32(n.Topo.NumNodes())})
	kinds := wheelKinds(n)
	if kinds[evFlit] == 0 || kinds[evCredit] == 0 || kinds[evSchemeCall] != 4 {
		t.Fatalf("wheel does not hold all three event kinds: %v", kinds)
	}
	return n, log
}

// TestSnapshotWheelRoundTrip: a wheel holding flit, credit and scheme-call
// events restores into a fresh network that writes the identical bytes
// back, and both networks then deliver the same calls at the same cycles
// and finish with the same statistics.
func TestSnapshotWheelRoundTrip(t *testing.T) {
	n, log := loadedWheelNet(t)
	var first bytes.Buffer
	if err := n.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}

	restoredLog := &callLog{}
	m := MustNew(topology.MustBuild(topology.BaselineConfig()), DefaultConfig(), restoredLog)
	if err := m.ReadSnapshot(first.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got, want := wheelKinds(m), wheelKinds(n); !reflect.DeepEqual(got, want) || m.wheelPending != n.wheelPending {
		t.Fatalf("restored wheel holds %v (%d pending), original %v (%d pending)", got, m.wheelPending, want, n.wheelPending)
	}
	var second bytes.Buffer
	if err := m.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-written snapshot differs from the one restored (%d vs %d bytes)", second.Len(), first.Len())
	}

	n.Run(wheelSize)
	m.Run(wheelSize)
	if len(log.got) != 4 {
		t.Fatalf("original delivered %d scheduled calls, want 4", len(log.got))
	}
	if len(restoredLog.got) != len(log.got) {
		t.Fatalf("restored network delivered %d scheduled calls, original %d", len(restoredLog.got), len(log.got))
	}
	for i, want := range log.got {
		got := restoredLog.got[i]
		// The flit payload's packet is a different object with equal
		// contents on the restored side.
		if want.call.HasFlit {
			if got.call.Flit.Pkt == nil || got.call.Flit.Pkt.ID != want.call.Flit.Pkt.ID || got.call.Flit.Seq != want.call.Flit.Seq {
				t.Fatalf("call %d flit payload %+v, want %+v", i, got.call.Flit, want.call.Flit)
			}
			got.call.Flit, want.call.Flit = message.Flit{}, message.Flit{}
		}
		if got != want {
			t.Fatalf("call %d delivered as %+v, want %+v", i, got, want)
		}
	}
	if n.Stats != m.Stats || n.Cycle() != m.Cycle() {
		t.Fatalf("runs diverged after the restore:\noriginal %+v\nrestored %+v", n.Stats, m.Stats)
	}
}

// TestSnapshotRejectsRetiredEventKind: wire value 2 was the closure event,
// which could never be serialized; a snapshot claiming one is corrupt.
func TestSnapshotRejectsRetiredEventKind(t *testing.T) {
	n, _ := loadedWheelNet(t)
	for si := range n.wheel {
		for ei := range n.wheel[si] {
			if n.wheel[si][ei].kind == evCredit {
				n.wheel[si][ei].kind = 2
			}
		}
	}
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m := MustNew(topology.MustBuild(topology.BaselineConfig()), DefaultConfig(), &callLog{})
	err := m.ReadSnapshot(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "event kind 2") {
		t.Fatalf("err = %v, want the retired event kind rejected", err)
	}
}

// TestSnapshotRejectsUndeliverableEvents: a flit or credit event its target
// router cannot take — no target, a port or VC the router does not have, a
// credit of more than one slot, a flit event without a packet — is corrupt
// input. Delivery indexes the routers' flat storage unchecked, so the
// decoder is where it has to fail, naming the field.
func TestSnapshotRejectsUndeliverableEvents(t *testing.T) {
	nvc := int8(DefaultConfig().Router.NumVCs())
	for _, c := range []struct {
		name   string
		kind   uint8
		mutate func(e *event, ports int)
		want   string
	}{
		{"flit without target", evFlit, func(e *event, _ int) { e.to = -1 }, "event to"},
		{"credit without target", evCredit, func(e *event, _ int) { e.to = -1 }, "event to"},
		{"flit port past the router's", evFlit, func(e *event, ports int) { e.port = topology.PortID(ports) }, "event port"},
		{"credit port negative", evCredit, func(e *event, _ int) { e.port = -1 }, "event port"},
		{"flit vc in the next port", evFlit, func(e *event, _ int) { e.vc = nvc }, "event vc"},
		{"credit vc negative", evCredit, func(e *event, _ int) { e.vc = -1 }, "event vc"},
		{"credit of two slots", evCredit, func(e *event, _ int) { e.delta = 2 }, "event delta"},
		{"credit of minus one", evCredit, func(e *event, _ int) { e.delta = -1 }, "event delta"},
		{"flit without packet", evFlit, func(e *event, _ int) { e.flit.Pkt = nil }, "event flit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, _ := loadedWheelNet(t)
			e := firstEvent(n, c.kind)
			c.mutate(e, len(n.Routers[e.to].In))
			var buf bytes.Buffer
			if err := n.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			m := MustNew(topology.MustBuild(topology.BaselineConfig()), DefaultConfig(), &callLog{})
			if err := m.ReadSnapshot(buf.Bytes()); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want the %s rejected", err, c.want)
			}
		})
	}
}

// firstEvent returns the first wheel event of the given kind.
func firstEvent(n *Network, kind uint8) *event {
	for si := range n.wheel {
		for ei := range n.wheel[si] {
			if n.wheel[si][ei].kind == kind {
				return &n.wheel[si][ei]
			}
		}
	}
	return nil
}
