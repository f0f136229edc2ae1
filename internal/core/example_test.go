package core_test

import (
	"fmt"
	"strings"

	"uppnoc/internal/core"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// Example builds the paper's baseline system with UPP attached and sends
// one packet across chiplets.
func Example() {
	topo := topology.MustBuild(topology.BaselineConfig())
	net := network.MustNew(topo, network.DefaultConfig(), core.New(core.DefaultConfig()))

	cores := topo.Cores()
	p := &message.Packet{
		Src:  cores[0],  // a core in chiplet 0
		Dst:  cores[63], // a core in chiplet 3
		VNet: message.VNetRequest,
		Size: message.DataPacketFlits,
	}
	net.NI(p.Src).Enqueue(p, 0)
	if err := net.Drain(10000, 2000); err != nil {
		panic(err)
	}
	fmt.Printf("delivered %d flits across %d chiplets\n", p.Size, 2)
	// Output: delivered 5 flits across 2 chiplets
}

// ExampleUPP_deadlockRecovery shows the recovery framework in miniature:
// an aggressive detection threshold treats brief congestion as deadlock,
// so even a light run exercises the full req/ack/popup machinery.
func ExampleUPP_deadlockRecovery() {
	topo := topology.MustBuild(topology.BaselineConfig())
	upp := core.New(core.Config{Threshold: 2})
	net := network.MustNew(topo, network.DefaultConfig(), upp)

	cores := topo.Cores()
	// A synchronized burst into one chiplet congests its up links.
	for i := 0; i < 32; i++ {
		p := &message.Packet{
			Src:  cores[i],
			Dst:  cores[48+i%16],
			VNet: message.VNetResponse,
			Size: message.DataPacketFlits,
		}
		net.NI(p.Src).Enqueue(p, 0)
	}
	if err := net.Drain(50000, 10000); err != nil {
		panic(err)
	}
	fmt.Printf("all packets delivered: %v\n", net.Stats.ConsumedPackets == 32)
	fmt.Printf("popups left behind: %d\n", upp.ActivePopups())
	// Output:
	// all packets delivered: true
	// popups left behind: 0
}

// ExampleUPP_protocol traces UPP's recovery protocol live, in both of its
// modes.
//
// Phase 1 uses a hair-trigger detection threshold so brief congestion is
// flagged as deadlock: nearly every popup is a false positive, cancelled
// by UPP_stop after the packet proceeds on its own (the paper's Sec. V-A
// claim that false positives are cheap).
//
// Phase 2 uses the paper's threshold on a genuinely overloaded network:
// real deadlocks form, and the full lifecycle runs to completion —
// detection, UPP_req at the destination NI, UPP_ack, circuit drain,
// recovery complete.
func ExampleUPP_protocol() {
	phase := func(title string, threshold int, rate float64, events int) {
		fmt.Println(title)
		fmt.Println(strings.Repeat("-", 76))
		topo := topology.MustBuild(topology.BaselineConfig())
		net := network.MustNew(topo, network.DefaultConfig(), core.New(core.Config{Threshold: threshold}))
		shown := 0
		net.SetTracer(func(e network.TraceEvent) {
			if e.Kind == "upp" && shown < events {
				shown++
				fmt.Println(e)
			}
		})
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, rate, 42)
		gen.Run(12000)
		gen.SetRate(0)
		if err := net.Drain(400000, 60000); err != nil {
			panic(err)
		}
		s := net.Stats
		fmt.Println(strings.Repeat("-", 76))
		fmt.Printf("delivered %d packets; %d upward packets, %d popups completed, %d false positives cancelled\n",
			s.ConsumedPackets, s.UpwardPackets, s.PopupsCompleted, s.PopupsCancelled)
	}
	phase("phase 1: threshold=3 — congestion flagged, cancelled by UPP_stop", 3, 0.05, 9)
	phase("phase 2: threshold=20, overload — real deadlocks recovered end to end", 20, 0.11, 15)
	// Output:
	// phase 1: threshold=3 — congestion flagged, cancelled by UPP_stop
	// ----------------------------------------------------------------------------
	// [      65] upp      node6   popup 1: selected upward pkt53 (resp) toward 43
	// [      67] upp      node6   popup 1: pkt53 proceeded normally; cancelling
	// [      72] upp      node43  popup 1: UPP_req at destination NI (vnet resp)
	// [      73] upp      node9   popup 2: selected upward pkt64 (resp) toward 51
	// [      75] upp      node9   popup 2: pkt64 proceeded normally; cancelling
	// [      77] upp      node51  popup 2: UPP_req at destination NI (vnet resp)
	// [     134] upp      node3   popup 3: selected upward pkt104 (resp) toward 38
	// [     134] upp      node11  popup 4: selected upward pkt95 (resp) toward 66
	// [     136] upp      node3   popup 3: pkt104 proceeded normally; cancelling
	// ----------------------------------------------------------------------------
	// delivered 12519 packets; 329 upward packets, 1 popups completed, 328 false positives cancelled
	// phase 2: threshold=20, overload — real deadlocks recovered end to end
	// ----------------------------------------------------------------------------
	// [     328] upp      node1   popup 1: selected upward pkt648 (resp) toward 22
	// [     338] upp      node22  popup 1: UPP_req at destination NI (vnet resp)
	// [     347] upp      node1   popup 1: UPP_ack received; draining pkt648 through the circuit
	// [     359] upp      node22  popup 1: pkt648 fully ejected; recovery complete
	// [     365] upp      node13  popup 2: selected upward pkt652 (resp) toward 56
	// [     372] upp      node56  popup 2: UPP_req at destination NI (vnet resp)
	// [     378] upp      node13  popup 2: UPP_ack received; draining pkt652 through the circuit
	// [     388] upp      node56  popup 2: pkt652 fully ejected; recovery complete
	// [     502] upp      node10  popup 3: selected upward pkt1040 (resp) toward 68
	// [     509] upp      node68  popup 3: UPP_req at destination NI (vnet resp)
	// [     515] upp      node10  popup 3: UPP_ack received; draining pkt1040 through the circuit
	// [     525] upp      node68  popup 3: pkt1040 fully ejected; recovery complete
	// [     532] upp      node11  popup 4: selected upward pkt590 (resp) toward 71
	// [     539] upp      node71  popup 4: UPP_req at destination NI (vnet resp)
	// [     545] upp      node11  popup 4: UPP_ack received; draining pkt590 through the circuit
	// ----------------------------------------------------------------------------
	// delivered 27597 packets; 304 upward packets, 267 popups completed, 37 false positives cancelled
}
