// Coherence workload: run one PARSEC profile (canneal, the paper's most
// network-sensitive benchmark) through the MESI substrate under all three
// deadlock-freedom schemes and compare runtimes, the Fig. 8 methodology.
// A full-system run is a RunSpec whose workload names the profile.
package main

import (
	"fmt"

	"uppnoc/internal/experiments"
	"uppnoc/internal/topology"
)

func main() {
	var base float64
	for _, name := range experiments.ComparedSchemes() {
		// A quarter of canneal's access quota keeps the demo quick.
		spec := experiments.RunSpec{Topo: topology.BaselineConfig(), Scheme: name, Seed: 2,
			Workload: "coherence:canneal,scale=0.25"}
		pt, err := experiments.Run(spec)
		if err != nil {
			panic(err)
		}
		if !pt.Completed {
			panic(fmt.Sprintf("%s: canneal did not finish", name))
		}
		if base == 0 {
			base = float64(pt.FinishCycle)
		}
		fmt.Printf("%-14s runtime %8d cycles (%.3f of composable's)  packets %d, upward %d, energy %.1f uJ\n",
			name, pt.FinishCycle, float64(pt.FinishCycle)/base, pt.Packets, pt.Upward, 1e6*experiments.EnergyJ(spec, pt))
	}
}
