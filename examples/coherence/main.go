// Coherence workload: run one PARSEC profile (canneal — the paper's most
// network-sensitive benchmark) through the MESI substrate under all three
// deadlock-freedom schemes and compare runtimes, the Fig. 8 methodology.
package main

import (
	"fmt"

	"uppnoc/internal/coherence"
	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

func main() {
	bench, err := coherence.BenchmarkByName("canneal")
	if err != nil {
		panic(err)
	}
	bench = bench.Scale(0.25) // shrink the access quota for a quick demo

	type result struct {
		name    experiments.SchemeName
		runtime int64
	}
	var results []result
	for _, name := range experiments.ComparedSchemes() {
		topo := topology.MustBuild(topology.BaselineConfig())
		scheme, err := experiments.MakeScheme(name, topo)
		if err != nil {
			panic(err)
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
