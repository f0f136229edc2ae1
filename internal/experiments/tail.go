package experiments

import (
	"fmt"

	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TailLatency compares latency percentiles across schemes at a moderate
// load — recovery frameworks shape the tail: a packet that would wait
// indefinitely in a wedged network is instead rescued by a popup, at the
// cost of the detection timeout plus the protocol round trip.
func TailLatency(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "tail_latency",
		Title:  "Latency percentiles per scheme (uniform random)",
		Header: []string{"scheme", "vcs", "rate", "p50", "p99", "max", "mean"},
		Notes: []string{
			"UPP's mean and p50 lead; its max reflects rescued packets (timeout + popup round trip)",
		},
	}
	type job struct {
		sch  SchemeName
		vcs  int
		rate float64
	}
	var jobs []job
	var specs []RunSpec
	for _, vcs := range []int{1, 4} {
		for _, rate := range []float64{0.03, 0.05} {
			for _, sch := range ComparedSchemes() {
				opts.Progress.log("tail_latency: %s vcs=%d rate=%.2f", sch, vcs, rate)
				jobs = append(jobs, job{sch, vcs, rate})
				specs = append(specs, RunSpec{
					Topo:       topology.BaselineConfig(),
					Scheme:     sch,
					VCsPerVNet: vcs,
					Pattern:    traffic.UniformRandom{},
					Rate:       rate,
					Seed:       17,
					Dur:        dur,
				})
			}
		}
	}
	pts, err := RunAll(specs, opts)
	if err != nil {
		return nil, fmt.Errorf("tail_latency: %w", err)
	}
	for i, pt := range pts {
		j := jobs[i]
		t.AddRowf(string(j.sch), j.vcs, j.rate, pt.LatP50, pt.LatP99, pt.LatMax, pt.TotalLat)
	}
	return []Table{t}, nil
}
