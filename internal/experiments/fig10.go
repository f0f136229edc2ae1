package experiments

import (
	"fmt"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// Fig10 reproduces the boundary-router sensitivity study: 2/4/8 boundary
// routers per chiplet, normalized latency and saturation throughput
// (normalized to composable routing with 1 VC and 4 boundary routers).
func Fig10(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "fig10",
		Title:  "Sensitivity to boundary routers per chiplet",
		Header: []string{"boundaries", "scheme", "vcs", "latency", "norm_latency", "sat_throughput", "norm_throughput"},
		Notes: []string{
			"normalized to composable routing, 1 VC, 4 boundary routers (the paper's baseline bar)",
			"paper: more boundary routers raise throughput and cut latency for every scheme; UPP stays best",
		},
	}
	type res struct {
		lat  float64
		thpt float64
	}
	results := map[string]res{}
	keyOf := func(b, vcs int, sch SchemeName) string { return fmt.Sprintf("%d/%d/%s", b, vcs, sch) }
	for _, b := range []int{2, 4, 8} {
		cfg := topology.BaselineConfig()
		cfg.BoundaryPerChiplet = b
		for _, vcs := range []int{1, 4} {
			for _, sch := range ComparedSchemes() {
				opts.Progress.log("fig10: boundaries=%d vcs=%d %s", b, vcs, sch)
				spec := RunSpec{
					Topo:       cfg,
					Scheme:     sch,
					VCsPerVNet: vcs,
					Pattern:    traffic.UniformRandom{},
					Seed:       23,
					Dur:        dur,
				}
				c, err := SweepRatesWith(spec, DefaultRates(), keyOf(b, vcs, sch), opts)
				if err != nil {
					return nil, err
				}
				// Low-load latency at the first point; saturation from the
				// sweep.
				results[keyOf(b, vcs, sch)] = res{lat: c.ZeroLoadLatency, thpt: c.SaturationThroughput}
			}
		}
	}
	base := results[keyOf(4, 1, SchemeComposable)]
	for _, b := range []int{2, 4, 8} {
		for _, vcs := range []int{1, 4} {
			for _, sch := range ComparedSchemes() {
				r := results[keyOf(b, vcs, sch)]
				t.AddRowf(b, string(sch), vcs, r.lat, r.lat/base.lat, r.thpt, r.thpt/base.thpt)
			}
		}
	}
	return []Table{t}, nil
}

// Fig11 reproduces the faulty-system study: UPP on systems with 0..20
// faulty links (up*/down* local routing), latency curves per VC count.
// The paper omits the baselines here: composable's design-time search
// cannot rerun online and remote control's permission tree is hard-wired.
func Fig11(dur Durations, opts PoolOptions) ([]Table, error) {
	curves := Table{
		ID:     "fig11",
		Title:  "UPP on faulty systems (latency vs injection rate)",
		Header: []string{"faulty_links", "vcs", "rate", "latency", "throughput", "saturated"},
		Notes: []string{
			"paper: saturation throughput degrades gracefully and latency rises slightly with more faults",
		},
	}
	summary := Table{
		ID:     "fig11_summary",
		Title:  "UPP faulty-system saturation summary",
		Header: []string{"faulty_links", "vcs", "sat_throughput", "low_load_latency", "upward_packets_at_sat"},
	}
	for _, vcs := range []int{1, 4} {
		for _, faults := range []int{0, 1, 5, 10, 15, 20} {
			opts.Progress.log("fig11: faults=%d vcs=%d", faults, vcs)
			spec := RunSpec{
				Topo:       topology.BaselineConfig(),
				Scheme:     SchemeUPP,
				VCsPerVNet: vcs,
				Pattern:    traffic.UniformRandom{},
				Seed:       31,
				Dur:        dur,
				Faults:     faults,
				FaultSeed:  1234,
				UseUpDown:  true,
			}
			c, err := SweepRatesWith(spec, DefaultRates(), fmt.Sprintf("faults=%d", faults), opts)
			if err != nil {
				return nil, err
			}
			var upAtSat uint64
			for _, pt := range c.Points {
				curves.AddRowf(faults, vcs, pt.Rate, pt.TotalLat, pt.Throughput, pt.Saturated)
				if !pt.Saturated {
					upAtSat = pt.Upward
				}
			}
			summary.AddRowf(faults, vcs, c.SaturationThroughput, c.ZeroLoadLatency, upAtSat)
		}
	}
	return []Table{curves, summary}, nil
}

// Fig13 reproduces the detection-threshold sensitivity study: thresholds
// of 20/100/1000 cycles barely move the saturation throughput, and the
// fraction of packets selected as upward packets stays tiny.
func Fig13(dur Durations, opts PoolOptions) ([]Table, error) {
	curves := Table{
		ID:     "fig13",
		Title:  "UPP detection-threshold sensitivity",
		Header: []string{"threshold", "vcs", "rate", "latency", "throughput", "upward_pct", "saturated"},
		Notes: []string{
			"paper: the threshold has little impact on saturation throughput",
			"paper: upward packets stay under ~0.4% of packets with 4 VCs, higher but harmless with 1 VC",
		},
	}
	summary := Table{
		ID:     "fig13_summary",
		Title:  "Saturation throughput per threshold",
		Header: []string{"threshold", "vcs", "sat_throughput"},
	}
	for _, vcs := range []int{1, 4} {
		for _, th := range []int{20, 100, 1000} {
			opts.Progress.log("fig13: threshold=%d vcs=%d", th, vcs)
			spec := RunSpec{
				Topo: topology.BaselineConfig(),
				SchemeOverride: func(t *topology.Topology) (network.Scheme, error) {
					return UPPWithThreshold(th), nil
				},
				VCsPerVNet: vcs,
				Pattern:    traffic.UniformRandom{},
				Seed:       47,
				Dur:        dur,
			}
			c, err := SweepRatesWith(spec, DefaultRates(), fmt.Sprintf("th=%d", th), opts)
			if err != nil {
				return nil, err
			}
			for _, pt := range c.Points {
				upPct := 0.0
				if pt.Packets > 0 {
					upPct = 100 * float64(pt.Upward) / float64(pt.Packets)
				}
				curves.AddRowf(th, vcs, pt.Rate, pt.TotalLat, pt.Throughput, fmt.Sprintf("%.3f%%", upPct), pt.Saturated)
			}
			summary.AddRowf(th, vcs, c.SaturationThroughput)
		}
	}
	return []Table{curves, summary}, nil
}
