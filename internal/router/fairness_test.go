package router_test

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// TestSwitchAllocationFairness: two input ports streaming endless 1-flit
// packets at the same output port must share its bandwidth roughly
// equally under round-robin arbitration.
func TestSwitchAllocationFairness(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	sink := &mockSink{}
	route := func(topology.NodeID, topology.PortID, *message.Packet) (topology.PortID, error) {
		return 1, nil
	}
	r := mustNew(t, router.ArchIQ, topo.Node(0), router.DefaultConfig(), sink, &mockLocal{accept: true}, route)

	sent := map[uint64]int{1: 0, 2: 0}
	id := uint64(0)
	refill := func(port topology.PortID, owner uint64, cycle sim.Cycle) {
		// Keep each port's VNet-0 VC topped up with 1-flit packets (the
		// VC holds single packets; refill when empty).
		vc := r.VCAt(port, 0)
		if vc.Empty() && vc.Free() > 0 {
			id++
			p := &message.Packet{ID: id<<8 | owner, Dst: 5, VNet: 0, Size: 1}
			r.ReceiveFlit(port, 0, message.Flit{Pkt: p}, cycle)
		}
	}
	for c := sim.Cycle(0); c < 3000; c++ {
		refill(2, 1, c)
		refill(3, 2, c)
		r.Step(c)
		// Return credits immediately so the output is never the limit.
		for _, f := range sink.flits {
			sent[f.f.Pkt.ID&0xff]++
		}
		sink.flits = sink.flits[:0]
		for range sink.credits {
		}
		sink.credits = sink.credits[:0]
		r.ReceiveCredit(1, 0, 0, false)
		r.Out[1].Credits[0] = 4
		r.Out[1].Busy[0] = false
	}
	a, b := sent[1], sent[2]
	if a == 0 || b == 0 {
		t.Fatalf("starvation: %d vs %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair allocation: port A %d vs port B %d (ratio %.2f)", a, b, ratio)
	}
}

// TestVNetVCIsolation: traffic of one VNet cannot occupy another VNet's
// VCs (protocol-deadlock separation).
func TestVNetVCIsolation(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	sink := &mockSink{}
	route := func(topology.NodeID, topology.PortID, *message.Packet) (topology.PortID, error) {
		return 1, nil
	}
	cfg := router.DefaultConfig()
	cfg.VCsPerVNet = 4
	r := mustNew(t, router.ArchIQ, topo.Node(0), cfg, sink, &mockLocal{accept: true}, route)
	p := &message.Packet{ID: 9, Dst: 5, VNet: message.VNetForward, Size: 1}
	r.ReceiveFlit(2, int8(cfg.VCIndex(message.VNetForward, 1)), message.Flit{Pkt: p}, 10)
	r.Step(11)
	if len(sink.flits) != 1 {
		t.Fatal("flit stuck")
	}
	dv := int(sink.flits[0].vc)
	if got := cfg.VCVNet(dv); got != message.VNetForward {
		t.Fatalf("forward-VNet packet allocated VC %d of vnet %s", dv, got)
	}
}

// TestVCTHeadGating (unit level): under VCT a head may not advance with
// partial downstream space.
func TestVCTHeadGating(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	sink := &mockSink{}
	route := func(topology.NodeID, topology.PortID, *message.Packet) (topology.PortID, error) {
		return 1, nil
	}
	cfg := router.DefaultConfig()
	cfg.VCT = true
	cfg.BufferDepth = 5
	r := mustNew(t, router.ArchIQ, topo.Node(0), cfg, sink, &mockLocal{accept: true}, route)
	p := &message.Packet{ID: 1, Dst: 5, VNet: 0, Size: 5}
	for i := int32(0); i < 5; i++ {
		r.ReceiveFlit(2, 0, message.Flit{Pkt: p, Seq: i}, 10)
	}
	r.Out[1].Credits[0] = 4 // space for 4 of 5 flits
	for c := sim.Cycle(10); c < 16; c++ {
		r.Step(c)
	}
	if len(sink.flits) != 0 {
		t.Fatal("VCT head advanced with partial downstream space")
	}
	r.ReceiveCredit(1, 0, 1, false) // now 5
	for c := sim.Cycle(16); c < 24; c++ {
		r.Step(c)
	}
	if len(sink.flits) != 5 {
		t.Fatalf("sent %d of 5 flits after space freed", len(sink.flits))
	}
}
