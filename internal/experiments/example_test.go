package experiments_test

import (
	"fmt"

	"uppnoc/internal/experiments"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// ExampleRun_largeSystem runs the 128-core configuration of Fig. 9 (an
// 8x4 interposer carrying eight 4x4 chiplets) under the three schemes at one
// load: UPP keeps the lowest latency as the system scales, the paper's
// generality claim.
func ExampleRun_largeSystem() {
	cfg := topology.LargeConfig()
	fmt.Printf("large system: %dx%d interposer, %d chiplets, 128 cores\n",
		cfg.InterposerW, cfg.InterposerH, cfg.ChipletsX*cfg.ChipletsY)
	fmt.Printf("%-16s %10s %12s %10s\n", "scheme", "latency", "accepted", "saturated")
	for _, sch := range experiments.ComparedSchemes() {
		pt, err := experiments.Run(experiments.RunSpec{
			Topo:       cfg,
			Scheme:     sch,
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Rate:       0.03,
			Seed:       5,
			Dur:        experiments.Durations{Warmup: 2000, Measure: 8000},
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s %10.1f %12.4f %10v\n", sch, pt.TotalLat, pt.Throughput, pt.Saturated)
	}
	// Output:
	// large system: 8x4 interposer, 8 chiplets, 128 cores
	// scheme              latency     accepted  saturated
	// composable             35.7       0.0297      false
	// remote_control         34.7       0.0297      false
	// upp                    30.0       0.0297      false
}
