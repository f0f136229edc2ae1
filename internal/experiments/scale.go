package experiments

import (
	"fmt"

	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// ScaleSystem pairs a label with a scale-out topology configuration. The
// three presets are shared by the `figures -exp scale` runner, uppsim
// and cmd/profile's -scale flags and the CI scale-smoke job, so every
// scale artifact talks about the same systems.
type ScaleSystem struct {
	Label  string
	Config topology.ScaleConfig
}

// ScaleSystems returns the benchmark ladder: small (flat 16x16 interposer,
// 512 routers), large (2x2 tiles, 2048 routers), huge (4x4 tiles, 8192
// routers).
func ScaleSystems() []ScaleSystem {
	return []ScaleSystem{
		{"small", topology.ScaleSmallConfig()},
		{"large", topology.ScaleLargeConfig()},
		{"huge", topology.ScaleHugeConfig()},
	}
}

// scaleRates is the offered-load grid of the scale saturation sweep. The
// scale systems saturate far earlier than the 60-node baseline (uniform
// random traffic is limited by the interposer mesh bisection, which grows
// with the perimeter while injection grows with the area), so the grid is
// dense below 0.02; the sweep's stop-past-saturation rule truncates the
// tail per system.
func scaleRates() []float64 {
	return []float64{0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.02, 0.03, 0.04, 0.06}
}

// Scale compares UPP against remote control on the scale-out systems
// under uniform random traffic: latency-vs-rate curves and a saturation
// summary for the small and large presets (the huge preset is exercised
// by the benchmark's mesh8192_sharded workload and CI smoke, where a single
// configuration suffices — a full sweep of an 8192-router system is a
// multi-hour run). Run via `figures -exp scale`.
func Scale(dur Durations, opts PoolOptions) ([]Table, error) {
	curves := Table{
		ID:     "scale",
		Title:  "Scale-out systems: latency vs injection rate (uniform random)",
		Header: []string{"system", "routers", "scheme", "rate", "latency", "throughput", "popups", "saturated"},
	}
	summary := Table{
		ID:     "scale_summary",
		Title:  "Scale-out saturation summary",
		Header: []string{"system", "routers", "scheme", "sat_rate", "sat_throughput", "zero_load_latency"},
		Notes: []string{
			"UPP's recovery stays event-driven at scale; remote control polls every boundary it has held",
			"huge (8192 routers) is covered by the mesh8192_sharded benchmark workload and the CI scale-smoke job",
		},
	}
	for _, sys := range ScaleSystems() {
		if sys.Label == "huge" {
			continue
		}
		sc := sys.Config
		for _, sch := range []SchemeName{SchemeRemoteControl, SchemeUPP} {
			spec := RunSpec{
				Scale:   &sc,
				Scheme:  sch,
				Pattern: traffic.UniformRandom{},
				Seed:    11,
				Dur:     dur,
			}
			label := fmt.Sprintf("%s-%s", sys.Label, sch)
			opts.Progress.log("scale: sweeping %s (%d routers)", label, sc.NumRouters())
			c, err := SweepRatesWith(spec, scaleRates(), label, opts)
			if err != nil {
				return nil, err
			}
			for _, pt := range c.Points {
				curves.AddRowf(sys.Label, sc.NumRouters(), string(sch),
					pt.Rate, pt.TotalLat, pt.Throughput, pt.Popups, pt.Saturated)
			}
			summary.AddRowf(sys.Label, sc.NumRouters(), string(sch),
				c.SaturationRate, c.SaturationThroughput, c.ZeroLoadLatency)
		}
	}
	return []Table{curves, summary}, nil
}
