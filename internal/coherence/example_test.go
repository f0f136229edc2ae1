package coherence_test

import (
	"fmt"

	"uppnoc/internal/coherence"
	"uppnoc/internal/experiments"
	"uppnoc/internal/topology"
)

// ExampleSpec runs one PARSEC profile (canneal, the paper's most
// network-sensitive benchmark) through the MESI substrate under all three
// deadlock-freedom schemes and compares runtimes, the Fig. 8 methodology:
// a full-system run is a RunSpec whose workload names the profile. UPP
// finishes first.
func ExampleSpec() {
	var base float64
	for _, name := range experiments.ComparedSchemes() {
		// A twentieth of canneal's access quota keeps the example quick.
		spec := experiments.RunSpec{Topo: topology.BaselineConfig(), Scheme: name, Seed: 2,
			Workload: coherence.Spec("canneal", 0.05)}
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
		fmt.Printf("%-14s runtime %6d cycles (%.3f of composable's)  packets %d, upward %d, energy %.1f uJ\n",
			name, pt.FinishCycle, float64(pt.FinishCycle)/base, pt.Packets, pt.Upward, 1e6*experiments.EnergyJ(spec, pt))
	}
	// Output:
	// composable     runtime  17000 cycles (1.000 of composable's)  packets 18054, upward 0, energy 10.1 uJ
	// remote_control runtime  15219 cycles (0.895 of composable's)  packets 18050, upward 0, energy 9.2 uJ
	// upp            runtime  14769 cycles (0.869 of composable's)  packets 18048, upward 0, energy 9.0 uJ
}
