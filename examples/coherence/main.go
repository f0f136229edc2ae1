// Coherence workload: run one PARSEC profile (canneal — the paper's most
// network-sensitive benchmark) through the MESI substrate under all three
// deadlock-freedom schemes and compare runtimes, the Fig. 8 methodology.
package main

import (
	"fmt"

	"uppnoc/internal/coherence"
	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/topology"
)

func main() {
	bench, err := coherence.BenchmarkByName("canneal")
	if err != nil {
		panic(err)
	}
	bench = bench.Scale(0.25) // shrink the access quota for a quick demo

	type result struct {
		name    string
		runtime int64
	}
	var results []result
	for _, name := range []string{"composable", "remote_control", "upp"} {
		topo := topology.MustBuild(topology.BaselineConfig())
		var scheme network.Scheme
		switch name {
		case "composable":
			s, err := composable.NewScheme(topo)
			if err != nil {
				panic(err)
			}
			scheme = s
		case "remote_control":
			scheme = remotectl.New()
		case "upp":
			scheme = core.New(core.DefaultConfig())
		}
		net := network.MustNew(topo, network.DefaultConfig(), scheme)
		sys, err := coherence.New(net, bench, 3)
		if err != nil {
			panic(err)
		}
		cycles, err := sys.Run(30_000_000)
		if err != nil {
			panic(err)
		}
		results = append(results, result{name, int64(cycles)})
		fmt.Printf("%-14s runtime %8d cycles  (reqs %d, fwds %d, resps %d, upward %d)\n",
			name, cycles, sys.Requests, sys.Forwards, sys.Responses, net.Stats.UpwardPackets)
	}
	base := float64(results[0].runtime)
	fmt.Println("\nnormalized runtime (composable = 1.000):")
	for _, r := range results {
		fmt.Printf("  %-14s %.3f\n", r.name, float64(r.runtime)/base)
	}
}
