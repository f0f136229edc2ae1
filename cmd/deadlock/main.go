// Command deadlock demonstrates the paper's core premise (Figs. 1 and 3):
// it drives the baseline chiplet system with fully adaptive routing and no
// deadlock handling until an integration-induced deadlock wedges the
// network, shows the stalled upward packets sitting at interposer up
// ports, then re-runs the identical workload under UPP and reports the
// recovery.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state passed in: the exit status is the
// return value (0 ok, 1 a wedge without an upward packet or a failed
// recovery, 2 bad flags). Everything it reports goes to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deadlock", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rate = fs.Float64("rate", 0.10, "offered load, flits/cycle/node")
		seed = fs.Uint64("seed", 42, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the problem and the usage
	}

	fmt.Fprintln(stdout, "--- Phase 1: fully adaptive routing, no deadlock handling ---")
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, *rate, *seed)
	g.Run(30000)
	g.SetRate(0)
	err := n.Drain(50000, 3000)
	if err == nil {
		fmt.Fprintln(stdout, "no deadlock formed at this load; try a higher -rate")
		return 0
	}
	fmt.Fprintf(stdout, "network wedged: %v\n\n", err)
	if c := n.FindDependencyCycle(); c != nil {
		fmt.Fprintln(stdout, "extracted buffer dependency cycle (the chain of Fig. 1):")
		fmt.Fprintf(stdout, "  %s\n", c)
		fmt.Fprintf(stdout, "  spans layers: %v, involves an upward packet: %v, chiplets touched: %v\n\n",
			c.SpansLayers(), c.InvolvesUpwardPacket(), c.Chiplets())
	}
	fmt.Fprintln(stdout, "stalled upward packets at interposer routers (the paper's key insight —")
	fmt.Fprintln(stdout, "every integration-induced deadlock contains at least one):")
	upward := 0
	for _, id := range topo.Interposer {
		r := n.Router(id)
		for pi := 0; pi < r.NumPorts(); pi++ {
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
				fmt.Fprintf(stdout, "  interposer router %2d: packet %d (vnet %s) stalled toward chiplet %d, dst router %d\n",
					id, f.Pkt.ID, f.Pkt.VNet, topo.Node(f.Pkt.Dst).Chiplet, f.Pkt.Dst)
			}
		}
	}
	fmt.Fprintf(stdout, "=> %d stalled upward packets found\n\n", upward)
	if upward == 0 {
		fmt.Fprintln(stdout, "unexpected: wedged without an upward packet (please report)")
		return 1
	}

	fmt.Fprintln(stdout, "--- Phase 2: identical workload under UPP ---")
	topo2 := topology.MustBuild(topology.BaselineConfig())
	u := core.New(core.DefaultConfig())
	n2 := network.MustNew(topo2, network.DefaultConfig(), u)
	g2 := traffic.NewGenerator(n2, traffic.UniformRandom{}, *rate, *seed)
	g2.Run(30000)
	g2.SetRate(0)
	if err := n2.Drain(500000, 50000); err != nil {
		fmt.Fprintf(stdout, "UPP failed to recover: %v\n", err)
		return 1
	}
	s := n2.Stats
	fmt.Fprintf(stdout, "all %d packets delivered.\n", s.ConsumedPackets)
	fmt.Fprintf(stdout, "  upward packets detected: %d\n", s.UpwardPackets)
	fmt.Fprintf(stdout, "  popups completed:        %d\n", s.PopupsCompleted)
	fmt.Fprintf(stdout, "  false positives (stops): %d\n", s.PopupsCancelled)
	fmt.Fprintf(stdout, "  ejection reservations:   %d\n", s.ReservationsGranted)
	fmt.Fprintf(stdout, "  protocol signal hops:    %d\n", s.SignalsSent)
	fmt.Fprintln(stdout, "\nUPP detected every deadlock at the interposer up ports, reserved an")
	fmt.Fprintln(stdout, "ejection entry with UPP_req/UPP_ack, and popped the upward packets")
	fmt.Fprintln(stdout, "through buffer-bypassing circuits — breaking every dependency cycle.")
	return 0
}
