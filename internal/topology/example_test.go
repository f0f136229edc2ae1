package topology_test

import (
	"fmt"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// The modularity scenario of Sec. III-A: four independently designed
// chiplets of different sizes (6x4, 4x4, 4x4, 2x2) with different
// boundary-router budgets (4/4/2/1), composed on one 4x4 interposer. No
// scheme gets global knowledge at design time, yet the system must stay
// (or recover to) deadlock-free.
func ExampleBuildHetero() {
	cfg := topology.HeteroExampleConfig()
	topo, err := topology.BuildHetero(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("heterogeneous chiplet system:")
	for _, ch := range topo.Chiplets {
		fmt.Printf("  chiplet %d: %dx%d mesh, %d boundary routers\n",
			ch.Index, ch.Width, ch.Height, len(ch.Boundary))
	}
	fmt.Printf("  interposer: %dx%d, %d vertical links, %d cores total\n\n",
		cfg.InterposerW, cfg.InterposerH, len(topo.VerticalLinks()), len(topo.Cores()))

	net := network.MustNew(topo, network.DefaultConfig(), core.New(core.DefaultConfig()))
	gen := traffic.NewGenerator(net, traffic.UniformRandom{}, 0.06, 7)
	gen.Run(5000)
	net.ResetMeasurement()
	gen.Run(30000)
	fmt.Printf("under UPP at 0.06 flits/cycle/node:\n")
	fmt.Printf("  latency    %.1f cycles\n", net.AvgTotalLatency())
	fmt.Printf("  accepted   %.4f flits/cycle/node\n", net.Throughput())
	fmt.Printf("  popups     %d completed, %d false positives\n",
		net.Stats.PopupsCompleted, net.Stats.PopupsCancelled)
	gen.SetRate(0)
	if err := net.Drain(300000, 60000); err != nil {
		panic(err)
	}
	fmt.Println("  drained cleanly — modular composition, deadlock recovery intact.")
	// Output:
	// heterogeneous chiplet system:
	//   chiplet 0: 6x4 mesh, 4 boundary routers
	//   chiplet 1: 4x4 mesh, 4 boundary routers
	//   chiplet 2: 4x4 mesh, 2 boundary routers
	//   chiplet 3: 2x2 mesh, 1 boundary routers
	//   interposer: 4x4, 11 vertical links, 60 cores total
	//
	// under UPP at 0.06 flits/cycle/node:
	//   latency    228.5 cycles
	//   accepted   0.0585 flits/cycle/node
	//   popups     173 completed, 17 false positives
	//   drained cleanly — modular composition, deadlock recovery intact.
}

// Faulty systems, in the spirit of Fig. 11: UPP keeps a chiplet system
// deadlock-free as mesh links fail, with gracefully degrading
// performance, because its detection and recovery are
// topology-independent (the baselines' design-time search and hard-wired
// tree cannot adapt).
func ExampleTopology_InjectFaults() {
	fmt.Println("UPP on faulty systems (uniform random @ 0.03 flits/cycle/node):")
	fmt.Printf("%8s  %10s  %10s  %8s\n", "faults", "latency", "accepted", "popups")
	for _, faults := range []int{0, 1, 5, 10, 15, 20} {
		topo := topology.MustBuild(topology.BaselineConfig())
		if faults > 0 {
			if _, err := topo.InjectFaults(faults, 7); err != nil {
				panic(err)
			}
		}
		cfg := network.DefaultConfig()
		cfg.UseUpDown = true // up*/down* local routing tolerates missing links
		net := network.MustNew(topo, cfg, core.New(core.DefaultConfig()))
		gen := traffic.NewGenerator(net, traffic.UniformRandom{}, 0.03, 11)
		gen.Run(5000)
		net.ResetMeasurement()
		gen.Run(30000)
		fmt.Printf("%8d  %10.1f  %10.4f  %8d\n",
			faults, net.AvgTotalLatency(), net.Throughput(), net.Stats.PopupsCompleted)
		gen.SetRate(0)
		if err := net.Drain(200000, 50000); err != nil {
			panic(fmt.Sprintf("faults=%d: %v", faults, err))
		}
	}
	fmt.Println("\nevery configuration drained — deadlock freedom holds on every topology.")
	// Output:
	// UPP on faulty systems (uniform random @ 0.03 flits/cycle/node):
	//   faults     latency    accepted    popups
	//        0        24.2      0.0296         0
	//        1        24.2      0.0296         0
	//        5        25.0      0.0296         0
	//       10        25.9      0.0296         0
	//       15        26.5      0.0296         0
	//       20        35.0      0.0296        10
	//
	// every configuration drained — deadlock freedom holds on every topology.
}
