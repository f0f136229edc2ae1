package experiments

import (
	"fmt"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// The ablation experiments quantify the design choices the paper argues
// for qualitatively: the static closest-boundary binding (Sec. V-D), the
// per-VC buffer depth (Table II), and the protocol signal spacing
// (Sec. V-B5). DESIGN.md's experiment index lists them alongside the
// paper's own figures.

// AblationBinding compares UPP under four egress-binding policies. The
// paper's argument: static closest binding is minimal; anything else
// lengthens paths and costs latency and throughput.
func AblationBinding(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "ablation_binding",
		Title:  "Egress boundary binding policies under UPP (Sec. V-D design argument)",
		Header: []string{"policy", "low_load_latency", "sat_throughput", "upward_at_sat"},
		Notes: []string{
			"static closest binding should dominate: lowest latency and highest (or tied) throughput",
		},
	}
	// Each policy is built fresh inside the override so every run owns its
	// policy instance: RandomEgressPolicy carries a mutable RNG, and a
	// shared instance would make runs order-dependent (and race under the
	// parallel pool).
	policies := []struct {
		name   string
		policy func() routing.BoundaryPolicy
	}{
		{"static_closest", func() routing.BoundaryPolicy { return nil }},
		{"random", func() routing.BoundaryPolicy { return routing.NewRandomEgressPolicy(99) }},
		{"farthest", func() routing.BoundaryPolicy { return routing.FarthestEgressPolicy{} }},
		{"single_boundary", func() routing.BoundaryPolicy { return routing.SingleEgressPolicy{} }},
	}
	for _, pc := range policies {
		opts.Progress.log("ablation_binding: %s", pc.name)
		makePolicy := pc.policy
		spec := RunSpec{
			Topo: topology.BaselineConfig(),
			SchemeOverride: func(*topology.Topology) (network.Scheme, error) {
				c := core.DefaultConfig()
				c.Policy = makePolicy()
				return core.New(c), nil
			},
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Seed:       61,
			Dur:        dur,
		}
		c, err := SweepRatesWith(spec, DefaultRates(), pc.name, opts)
		if err != nil {
			return nil, err
		}
		var upward uint64
		for _, pt := range c.Points {
			if !pt.Saturated {
				upward = pt.Upward
			}
		}
		t.AddRowf(pc.name, c.ZeroLoadLatency, c.SaturationThroughput, upward)
	}
	return []Table{t}, nil
}

// AblationAdaptive compares UPP over XY local routing against UPP over
// minimal-adaptive odd-even routing — the "fully adaptive network" the
// recovery framework enables (Sec. IV-B's full-path-diversity claim).
func AblationAdaptive(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "ablation_adaptive",
		Title:  "UPP with XY vs minimal-adaptive odd-even local routing",
		Header: []string{"pattern", "local_routing", "low_load_latency", "sat_throughput", "upward_at_sat"},
		Notes: []string{
			"UPP recovers correctly under adaptive routing (popup paths chase the packet's own VC chain)",
			"at 1 VC, odd-even's restricted turn set costs saturation throughput vs XY on these patterns — the classic DOR-vs-odd-even result; the point of the ablation is correctness under adaptivity, not a win",
		},
	}
	for _, pat := range traffic.Patterns() {
		for _, adaptive := range []bool{false, true} {
			name := "xy"
			if adaptive {
				name = "odd_even"
			}
			opts.Progress.log("ablation_adaptive: %s %s", pat.Name(), name)
			spec := RunSpec{
				Topo:       topology.BaselineConfig(),
				Scheme:     SchemeUPP,
				VCsPerVNet: 1,
				Pattern:    pat,
				Seed:       83,
				Dur:        dur,
				Adaptive:   adaptive,
			}
			c, err := SweepRatesWith(spec, DefaultRates(), pat.Name()+"/"+name, opts)
			if err != nil {
				return nil, err
			}
			var upward uint64
			for _, pt := range c.Points {
				if !pt.Saturated {
					upward = pt.Upward
				}
			}
			t.AddRowf(pat.Name(), name, c.ZeroLoadLatency, c.SaturationThroughput, upward)
		}
	}
	return []Table{t}, nil
}

// AblationBufferDepth sweeps the per-VC buffer depth.
func AblationBufferDepth(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "ablation_depth",
		Title:  "Per-VC buffer depth under UPP",
		Header: []string{"depth", "low_load_latency", "sat_throughput"},
		Notes:  []string{"deeper buffers raise saturation throughput with diminishing returns"},
	}
	for _, depth := range []int{2, 4, 8} {
		opts.Progress.log("ablation_depth: %d flits", depth)
		spec := RunSpec{
			Topo:        topology.BaselineConfig(),
			Scheme:      SchemeUPP,
			VCsPerVNet:  1,
			BufferDepth: depth,
			Pattern:     traffic.UniformRandom{},
			Seed:        67,
			Dur:         dur,
		}
		c, err := SweepRatesWith(spec, DefaultRates(), fmt.Sprintf("depth=%d", depth), opts)
		if err != nil {
			return nil, err
		}
		t.AddRowf(depth, c.ZeroLoadLatency, c.SaturationThroughput)
	}
	return []Table{t}, nil
}

// AblationSignalGap sweeps the serialization gap between protocol signals
// from one interposer router (Sec. V-B5 prescribes data-packet-size + 1).
func AblationSignalGap(dur Durations, opts PoolOptions) ([]Table, error) {
	t := Table{
		ID:     "ablation_gap",
		Title:  "UPP protocol-signal serialization gap",
		Header: []string{"gap_cycles", "sat_throughput", "upward_at_sat", "signals_at_sat"},
		Notes:  []string{"recovery traffic is tiny, so the gap barely moves throughput — matching the paper's bandwidth-waste analysis"},
	}
	for _, gap := range []int{1, 6, 12} {
		opts.Progress.log("ablation_gap: %d", gap)
		cfg := core.DefaultConfig()
		cfg.SignalGap = gap
		spec := RunSpec{
			Topo: topology.BaselineConfig(),
			SchemeOverride: func(*topology.Topology) (network.Scheme, error) {
				c := cfg
				return core.New(c), nil
			},
			VCsPerVNet: 1,
			Pattern:    traffic.UniformRandom{},
			Seed:       71,
			Dur:        dur,
		}
		c, err := SweepRatesWith(spec, DefaultRates(), fmt.Sprintf("gap=%d", gap), opts)
		if err != nil {
			return nil, err
		}
		var upward, signals uint64
		for _, pt := range c.Points {
			if !pt.Saturated {
				upward, signals = pt.Upward, pt.Signals
			}
		}
		t.AddRowf(gap, c.SaturationThroughput, upward, signals)
	}
	return []Table{t}, nil
}
