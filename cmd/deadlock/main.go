// Command deadlock demonstrates the paper's core premise (Figs. 1 and 3):
// it drives the baseline chiplet system with fully adaptive routing and no
// deadlock handling until an integration-induced deadlock wedges the
// network, shows the stalled upward packets sitting at interposer up
// ports, then re-runs the identical workload under UPP and reports the
// recovery.
package main

import (
	"flag"
	"fmt"
	"os"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

func main() {
	var (
		rate = flag.Float64("rate", 0.10, "offered load, flits/cycle/node")
		seed = flag.Uint64("seed", 42, "workload seed")
	)
	flag.Parse()

	fmt.Println("--- Phase 1: fully adaptive routing, no deadlock handling ---")
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, *rate, *seed)
	g.Run(30000)
	g.SetRate(0)
	err := n.Drain(50000, 3000)
	if err == nil {
		fmt.Println("no deadlock formed at this load; try a higher -rate")
		os.Exit(0)
	}
	fmt.Printf("network wedged: %v\n\n", err)
	if c := n.FindDependencyCycle(); c != nil {
		fmt.Println("extracted buffer dependency cycle (the chain of Fig. 1):")
		fmt.Printf("  %s\n", c)
		fmt.Printf("  spans layers: %v, involves an upward packet: %v, chiplets touched: %v\n\n",
			c.SpansLayers(), c.InvolvesUpwardPacket(), c.Chiplets())
	}
	fmt.Println("stalled upward packets at interposer routers (the paper's key insight —")
	fmt.Println("every integration-induced deadlock contains at least one):")
	upward := 0
	for _, id := range topo.Interposer {
		r := n.Router(id)
		for pi := 0; pi < len(r.In); pi++ {
			for vi := 0; vi < n.Cfg.Router.NumVCs(); vi++ {
				vc := r.VCAt(topology.PortID(pi), vi)
				if vc.State == router.VCIdle || vc.OutPort == topology.InvalidPort {
					continue
				}
				if r.Node.Ports[vc.OutPort].Dir != topology.Up {
					continue
				}
				f, _, ok := vc.Front()
				if !ok {
					continue
				}
				upward++
				fmt.Printf("  interposer router %2d: packet %d (vnet %s) stalled toward chiplet %d, dst router %d\n",
					id, f.Pkt.ID, f.Pkt.VNet, topo.Node(f.Pkt.Dst).Chiplet, f.Pkt.Dst)
			}
		}
	}
	fmt.Printf("=> %d stalled upward packets found\n\n", upward)
	fmt.Println(n.RenderOccupancy())
	fmt.Println(n.RenderUpPorts())
	if upward == 0 {
		fmt.Println("unexpected: wedged without an upward packet (please report)")
		os.Exit(1)
	}

	fmt.Println("--- Phase 2: identical workload under UPP ---")
	topo2 := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.DefaultConfig())
	n2 := network.MustNew(topo2, network.DefaultConfig(), u)
	g2 := traffic.NewGenerator(n2, traffic.UniformRandom{}, *rate, *seed)
	g2.Run(30000)
	g2.SetRate(0)
	if err := n2.Drain(500000, 50000); err != nil {
		fmt.Printf("UPP failed to recover: %v\n", err)
		os.Exit(1)
	}
	s := n2.Stats
	fmt.Printf("all %d packets delivered.\n", s.ConsumedPackets)
	fmt.Printf("  upward packets detected: %d\n", s.UpwardPackets)
	fmt.Printf("  popups completed:        %d\n", s.PopupsCompleted)
	fmt.Printf("  false positives (stops): %d\n", s.PopupsCancelled)
	fmt.Printf("  ejection reservations:   %d\n", s.ReservationsGranted)
	fmt.Printf("  protocol signal hops:    %d\n", s.SignalsSent)
	fmt.Println("\nUPP detected every deadlock at the interposer up ports, reserved an")
	fmt.Println("ejection entry with UPP_req/UPP_ack, and popped the upward packets")
	fmt.Println("through buffer-bypassing circuits — breaking every dependency cycle.")
}
