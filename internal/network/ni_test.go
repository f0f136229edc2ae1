package network_test

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

func newIdleNet(t *testing.T) *network.Network {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	return network.MustNew(topo, network.DefaultConfig(), network.None{})
}

// grantLog is a scheme that records the reservation grants NIs hand back
// through OnScheduledCall.
type grantLog struct {
	network.BaseScheme
	grants []network.SchemeCall
}

func (*grantLog) Name() string { return "grant_log" }
func (g *grantLog) OnScheduledCall(c network.SchemeCall, _ sim.Cycle) {
	if c.Kind == network.CallReservationGranted {
		g.grants = append(g.grants, c)
	}
}

// granted reports whether exactly the reservation (ni, vnet, popupID) was
// granted, and nothing else.
func (g *grantLog) granted(ni *network.NI, vnet message.VNet, popupID uint64) bool {
	want := network.SchemeCall{Kind: network.CallReservationGranted, Node: ni.Node, A: popupID, B: uint64(vnet)}
	return len(g.grants) == 1 && g.grants[0] == want
}

func newGrantLogNet(t *testing.T) (*network.Network, *grantLog) {
	t.Helper()
	log := &grantLog{}
	return network.MustNew(topology.MustBuild(topology.BaselineConfig()), network.DefaultConfig(), log), log
}

// TestReservationImmediateGrant: with free entries the reservation grants
// in the same call (the NI side of UPP_req, Sec. V-B).
func TestReservationImmediateGrant(t *testing.T) {
	n, log := newGrantLogNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	ni.RequestReservation(message.VNetResponse, 1, 0)
	if !log.granted(ni, message.VNetResponse, 1) {
		t.Fatal("reservation not granted immediately with a free queue")
	}
	if got := ni.ReservedEntries(message.VNetResponse); got != 1 {
		t.Fatalf("reserved entries %d", got)
	}
	if got := ni.FreeEjectionEntries(message.VNetResponse); got != n.Cfg.EjectionDepth-1 {
		t.Fatalf("free entries %d", got)
	}
	ni.CancelReservation(message.VNetResponse, 1)
	if got := ni.ReservedEntries(message.VNetResponse); got != 0 {
		t.Fatalf("reserved entries after cancel %d", got)
	}
}

// TestReservationWaitsOnFullQueue: with the queue full the grant waits
// until a consume frees an entry — the waiter path the Sec. V-B4 proof
// guarantees terminates.
func TestReservationWaitsOnFullQueue(t *testing.T) {
	n, log := newGrantLogNet(t)
	dst := n.Topo.Cores()[5]
	ni := n.NI(dst)
	// Fill the response ejection queue with unconsumed packets.
	blocked := true
	ni.Consume = func(*message.Packet, int64) bool { return !blocked }
	for i := 0; i < n.Cfg.EjectionDepth; i++ {
		p := &message.Packet{ID: uint64(100 + i), Src: n.Topo.Cores()[10+i], Dst: dst,
			VNet: message.VNetResponse, Size: 1}
		n.NI(p.Src).Enqueue(p, n.Cycle())
	}
	n.Run(2000)
	if ni.FreeEjectionEntries(message.VNetResponse) != 0 {
		t.Fatal("queue not full")
	}
	ni.RequestReservation(message.VNetResponse, 9, n.Cycle())
	n.Run(50)
	if len(log.grants) != 0 {
		t.Fatal("granted against a full queue")
	}
	blocked = false
	n.Run(50)
	if !log.granted(ni, message.VNetResponse, 9) {
		t.Fatal("reservation never granted after the queue drained")
	}
}

// TestCancelPendingWaiter: cancelling a reservation that is still waiting
// removes the waiter without touching the reserved count.
func TestCancelPendingWaiter(t *testing.T) {
	n, log := newGrantLogNet(t)
	dst := n.Topo.Cores()[5]
	ni := n.NI(dst)
	ni.Consume = func(*message.Packet, int64) bool { return false }
	for i := 0; i < n.Cfg.EjectionDepth; i++ {
		p := &message.Packet{Src: n.Topo.Cores()[10+i], Dst: dst, VNet: message.VNetRequest, Size: 1}
		n.NI(p.Src).Enqueue(p, n.Cycle())
	}
	n.Run(2000)
	ni.RequestReservation(message.VNetRequest, 77, n.Cycle())
	ni.CancelReservation(message.VNetRequest, 77)
	ni.Consume = func(*message.Packet, int64) bool { return true }
	n.Run(200)
	if len(log.grants) != 0 {
		t.Fatal("cancelled waiter was granted")
	}
	if got := ni.ReservedEntries(message.VNetRequest); got != 0 {
		t.Fatalf("reserved entries %d after cancelled waiter", got)
	}
}

// TestCanAcceptHeadRespectsReservations: a reserved entry is invisible to
// normal head admission.
func TestCanAcceptHeadRespectsReservations(t *testing.T) {
	n := newIdleNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	pkt := &message.Packet{VNet: message.VNetForward, Size: 1}
	for i := 0; i < n.Cfg.EjectionDepth; i++ {
		ni.RequestReservation(message.VNetForward, uint64(i+1), 0)
	}
	if ni.CanAcceptHead(pkt, 0) {
		t.Fatal("head admitted into a fully reserved queue")
	}
	ni.CancelReservation(message.VNetForward, 1)
	if !ni.CanAcceptHead(pkt, 0) {
		t.Fatal("head rejected with a free entry")
	}
}

// TestPopupFlitConsumesReservation: a popup-mode flit uses the reserved
// entry exactly once.
func TestPopupFlitConsumesReservation(t *testing.T) {
	n := newIdleNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	ni.RequestReservation(message.VNetResponse, 5, 0)
	pkt := &message.Packet{ID: 1, VNet: message.VNetResponse, Size: 2, Popup: true, PopupID: 5}
	ni.AcceptFlit(message.Flit{Pkt: pkt, Seq: 0}, 1)
	if got := ni.ReservedEntries(message.VNetResponse); got != 0 {
		t.Fatalf("reservation not consumed: %d", got)
	}
	// The second flit must not consume anything else.
	before := ni.FreeEjectionEntries(message.VNetResponse)
	ni.AcceptFlit(message.Flit{Pkt: pkt, Seq: 1}, 2)
	if got := ni.FreeEjectionEntries(message.VNetResponse); got != before {
		t.Fatalf("tail flit changed free entries: %d -> %d", before, got)
	}
}

// TestInjSpaceBounds: InjSpace obeys caps, including the unbounded case.
func TestInjSpaceBounds(t *testing.T) {
	n := newIdleNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	if !ni.InjSpace(message.VNetRequest, 0) {
		t.Fatal("cap 0 should mean unbounded")
	}
	for i := 0; i < 3; i++ {
		p := &message.Packet{Src: n.Topo.Cores()[0], Dst: n.Topo.Cores()[1], VNet: message.VNetRequest, Size: 1}
		ni.Enqueue(p, 0)
	}
	if ni.InjSpace(message.VNetRequest, 3) {
		t.Fatal("cap 3 with 3 queued should be full")
	}
	if !ni.InjSpace(message.VNetRequest, 4) {
		t.Fatal("cap 4 with 3 queued should have space")
	}
}
