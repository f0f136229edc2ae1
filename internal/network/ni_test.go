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

// grantLog is a scheme that records every call NIs hand back through
// OnScheduledCall (it schedules none itself).
type grantLog struct {
	network.BaseScheme
	calls []network.SchemeCall
}

func (*grantLog) Name() string { return "grant_log" }
func (g *grantLog) OnScheduledCall(c network.SchemeCall, _ sim.Cycle) {
	g.calls = append(g.calls, c)
}

// granted reports whether exactly the reservation (ni, vnet, popupID) was
// granted, and nothing else was handed to the scheme.
func (g *grantLog) granted(ni *network.NI, vnet message.VNet, popupID uint64) bool {
	want := network.SchemeCall{Kind: network.CallReservationGranted, Node: ni.Node, A: popupID, B: uint64(vnet)}
	return len(g.calls) == 1 && g.calls[0] == want
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
	if got := ni.FreeEjectionEntries(message.VNetResponse); got != network.EjectionDepth-1 {
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
	for i := 0; i < network.EjectionDepth; i++ {
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
	if len(log.calls) != 0 {
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
	for i := 0; i < network.EjectionDepth; i++ {
		p := &message.Packet{Src: n.Topo.Cores()[10+i], Dst: dst, VNet: message.VNetRequest, Size: 1}
		n.NI(p.Src).Enqueue(p, n.Cycle())
	}
	n.Run(2000)
	ni.RequestReservation(message.VNetRequest, 77, n.Cycle())
	ni.CancelReservation(message.VNetRequest, 77)
	ni.Consume = func(*message.Packet, int64) bool { return true }
	n.Run(200)
	if len(log.calls) != 0 {
		t.Fatal("cancelled waiter was granted")
	}
	if got := ni.ReservedEntries(message.VNetRequest); got != 0 {
		t.Fatalf("reserved entries %d after cancelled waiter", got)
	}
}

// TestCancelledReservationGrantsWaiter: an NI whose only work is a
// reservation waiter, queued behind reservations that fill its ejection
// queue, stays awake, so when one of those reservations is cancelled —
// which wakes nothing — the waiter is granted on the NI's next step. The
// active and parallel kernels grant it in the same cycle as the oracle,
// which steps every NI every cycle.
func TestCancelledReservationGrantsWaiter(t *testing.T) {
	grantCycle := func(kernel string) sim.Cycle {
		log := &grantLog{}
		cfg := network.DefaultConfig()
		cfg.Kernel, cfg.Shards = kernel, 2
		n := network.MustNew(topology.MustBuild(topology.BaselineConfig()), cfg, log)
		ni := n.NI(n.Topo.Cores()[5])
		for id := uint64(1); id <= network.EjectionDepth; id++ {
			ni.RequestReservation(message.VNetResponse, id, n.Cycle())
		}
		ni.RequestReservation(message.VNetResponse, 99, n.Cycle())
		n.Run(20)
		if len(log.calls) != network.EjectionDepth {
			t.Fatalf("%s: %d grants with the queue fully reserved, want %d", kernel, len(log.calls), network.EjectionDepth)
		}
		ni.CancelReservation(message.VNetResponse, 1)
		for i := 0; i < 20; i++ {
			n.Step()
			if len(log.calls) > network.EjectionDepth {
				if last := log.calls[len(log.calls)-1]; last.A != 99 {
					t.Fatalf("%s: granted popup %d, want the waiter 99", kernel, last.A)
				}
				return n.Cycle()
			}
		}
		t.Fatalf("%s: the waiter was not granted within 20 cycles of the cancel", kernel)
		return 0
	}
	want := grantCycle(network.KernelNaive)
	for _, kernel := range []string{network.KernelActive, network.KernelParallel} {
		if got := grantCycle(kernel); got != want {
			t.Errorf("%s kernel granted the waiter at cycle %d, the oracle at %d", kernel, got, want)
		}
	}
}

// TestCanAcceptHeadRespectsReservations: a reserved entry is invisible to
// normal head admission.
func TestCanAcceptHeadRespectsReservations(t *testing.T) {
	n := newIdleNet(t)
	ni := n.NI(n.Topo.Cores()[0])
	pkt := &message.Packet{VNet: message.VNetForward, Size: 1}
	for i := 0; i < network.EjectionDepth; i++ {
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

// TestOnlyPopupEjectionReachesScheme: a normal packet ejects without a
// call to the scheme; a popup packet's last flit hands it CallPopupEjected.
func TestOnlyPopupEjectionReachesScheme(t *testing.T) {
	n, log := newGrantLogNet(t)
	cores := n.Topo.Cores()
	normal := &message.Packet{Src: cores[0], Dst: cores[len(cores)-1], VNet: message.VNetResponse, Size: 5}
	n.NI(normal.Src).Enqueue(normal, 0)
	if err := n.Drain(2000, 500); err != nil {
		t.Fatal(err)
	}
	if n.Stats.EjectedPackets != 1 || len(log.calls) != 0 {
		t.Fatalf("%d packets ejected, scheme handed %+v", n.Stats.EjectedPackets, log.calls)
	}
	ni := n.NI(cores[3])
	ni.RequestReservation(message.VNetResponse, 5, n.Cycle())
	log.calls = nil
	pkt := &message.Packet{ID: 99, VNet: message.VNetResponse, Size: 2, Popup: true, PopupID: 5}
	ni.AcceptFlit(message.Flit{Pkt: pkt, Seq: 0}, 10)
	if len(log.calls) != 0 {
		t.Fatalf("popup head handed %+v", log.calls)
	}
	tail := message.Flit{Pkt: pkt, Seq: 1}
	ni.AcceptFlit(tail, 11)
	want := network.SchemeCall{Kind: network.CallPopupEjected, Node: ni.Node, A: 5, Flit: tail, HasFlit: true}
	if len(log.calls) != 1 || log.calls[0] != want {
		t.Fatalf("popup ejection handed %+v, want %+v", log.calls, want)
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
