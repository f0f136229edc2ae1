package experiments

import (
	"fmt"
	"os"

	"uppnoc/internal/message"

	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// RunSpec describes one simulation point.
type RunSpec struct {
	Topo topology.SystemConfig
	// Scale, when non-nil, builds the system with topology.BuildScale
	// instead of Topo — the scale-out experiments. Scale runs don't use
	// the composable-scheme cache (keyed on SystemConfig), so pair Scale
	// with Scheme, not SchemeOverride, for upp/remote_control/none.
	Scale     *topology.ScaleConfig
	Faults    int
	FaultSeed uint64
	// FaultsPerLayer faults that many mesh links in every layer
	// (InjectFaultsPerLayer) instead of Faults' global count — the
	// fault-sweep robustness figure.
	FaultsPerLayer int
	// FaultPlan, when non-empty, attaches a runtime fault-injection plan
	// (faults.ParseSpec syntax: "flaps=4,drop=0.2,..."). UPP runs it with
	// the hardened config (signal timeout + retry) so injected signal loss
	// is recovered rather than fatal.
	FaultPlan string
	Scheme    SchemeName
	// SchemeOverride, when non-nil, is used instead of Scheme (threshold
	// sweeps).
	SchemeOverride func(t *topology.Topology) (network.Scheme, error)
	VCsPerVNet     int
	// BufferDepth overrides the per-VC buffer depth when > 0 (ablation).
	BufferDepth int
	Pattern     traffic.Pattern
	Rate        float64 // flits/cycle/node offered
	Seed        uint64
	Dur         Durations
	UseUpDown   bool
	// Adaptive selects odd-even minimal-adaptive local routing.
	Adaptive bool
	// VCT selects virtual cut-through flow control (forces BufferDepth to
	// hold a whole data packet when unset).
	VCT bool
	// TraceLimit, when > 0, prints the first N simulator events to
	// stderr.
	TraceLimit int
	// RouterArch selects the router microarchitecture ("iq", "oq",
	// "voq"); empty defers to UPP_ROUTER and then the iq default.
	RouterArch string
}

// Point is the measured outcome of one run.
type Point struct {
	Rate       float64
	NetLat     float64
	QueueLat   float64
	TotalLat   float64
	Throughput float64 // accepted flits/cycle/node
	// Latency percentiles over the measurement window (total latency).
	LatP50, LatP99, LatMax uint64
	Packets                uint64 // packets delivered in the measurement window
	Upward                 uint64
	Popups                 uint64
	Signals                uint64
	Saturated              bool
}

// latencyCap marks a run as saturated when average total latency exceeds
// it (the paper's Fig. 7 y-axis tops out at 100 cycles).
const latencyCap = 100.0

// Run executes one simulation point. When the result cache is enabled
// (UPP_CACHE_DIR, see cache.go) and the spec is canonicalizable, a cached
// Point is returned without simulating, and a cold run may restore a
// warm-start checkpoint to skip the warmup phase; both reproduce the
// uncached run bit-identically.
func Run(spec RunSpec) (Point, error) {
	dir := CacheDir()
	env, canonical, cacheable := canonicalSpec(spec)
	if dir == "" || !cacheable {
		return runMeasured(spec, nil)
	}
	hash := cacheHash(canonical)
	if pt, ok := loadCachedPoint(dir, hash, canonical); ok {
		cacheHits.Add(1)
		return pt, nil
	}
	cacheMisses.Add(1)
	pt, err := runMeasured(spec, newWarmState(dir, env))
	if err == nil {
		storeCachedPoint(dir, hash, canonical, pt)
	}
	return pt, err
}

// BuildRun constructs the simulation environment for one spec — the
// topology (with any static faults), the scheme, the network (with any
// runtime fault plan attached) and the traffic generator — without
// running a cycle. Run drives this; uppsim's checkpoint flags and the
// warm-start machinery rebuild identical environments from it.
func BuildRun(spec RunSpec) (*network.Network, *traffic.Generator, error) {
	var topo *topology.Topology
	var err error
	if spec.Scale != nil {
		topo, err = topology.BuildScale(*spec.Scale)
	} else {
		topo, err = topology.Build(spec.Topo)
	}
	if err != nil {
		return nil, nil, err
	}
	if spec.Faults > 0 {
		if _, err := topo.InjectFaults(spec.Faults, spec.FaultSeed); err != nil {
			return nil, nil, err
		}
	}
	if spec.FaultsPerLayer > 0 {
		if _, err := topo.InjectFaultsPerLayer(spec.FaultsPerLayer, spec.FaultSeed); err != nil {
			return nil, nil, err
		}
	}
	var scheme network.Scheme
	switch {
	case spec.SchemeOverride != nil:
		scheme, err = spec.SchemeOverride(topo)
	case spec.FaultPlan != "" && spec.Scheme == SchemeUPP:
		// Runtime signal faults need the retry machinery.
		scheme = HardenedUPP()
	case spec.Scale == nil && spec.Faults == 0 && spec.FaultsPerLayer == 0:
		// Cacheable: composable's design-time search is reused across
		// runs of the same configuration. (Scale runs skip the cache —
		// it is keyed on SystemConfig, which a Scale spec leaves zero.)
		scheme, err = cachedScheme(spec.Topo, spec.Scheme)(topo)
	default:
		scheme, err = MakeScheme(spec.Scheme, topo)
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := network.DefaultConfig()
	if spec.VCsPerVNet > 0 {
		cfg.Router.VCsPerVNet = spec.VCsPerVNet
	}
	if spec.BufferDepth > 0 {
		cfg.Router.BufferDepth = spec.BufferDepth
	}
	if spec.VCT {
		cfg.Router.VCT = true
		if cfg.Router.BufferDepth < message.DataPacketFlits {
			cfg.Router.BufferDepth = message.DataPacketFlits
		}
	}
	var plan faults.Plan
	if spec.FaultPlan != "" {
		plan, err = faults.ParseSpec(topo, spec.FaultPlan)
		if err != nil {
			return nil, nil, err
		}
	}
	cfg.Seed = spec.Seed + 1
	cfg.RouterArch = spec.RouterArch
	// Persistent topology events rebuild routing at runtime, which needs
	// the fault-indexed up*/down* local (XY consults Link.Faulty at route
	// time and would wedge on a mid-run kill).
	cfg.UseUpDown = spec.UseUpDown || spec.Faults > 0 || spec.FaultsPerLayer > 0 || plan.Persistent()
	cfg.Adaptive = spec.Adaptive
	n, err := NewNetwork(topo, cfg, scheme)
	if err != nil {
		return nil, nil, err
	}
	if spec.FaultPlan != "" {
		if _, err := reconfig.Attach(n, reconfig.Config{Plan: plan}); err != nil {
			return nil, nil, err
		}
	}
	if spec.TraceLimit > 0 {
		n.SetTracer(network.WriteTracer(os.Stderr, spec.TraceLimit))
	}
	g := traffic.NewGenerator(n, spec.Pattern, spec.Rate, spec.Seed+7777)
	return n, g, nil
}

// runMeasured is the cold path of Run: build the environment, warm up
// (or restore a warm-start checkpoint), measure, summarize. warm may be
// nil (warm-start disabled or spec not canonicalizable).
func runMeasured(spec RunSpec, warm *warmState) (Point, error) {
	n, g, err := BuildRun(spec)
	if err != nil {
		return Point{}, err
	}
	at := sim.Cycle(spec.Dur.Warmup)
	var checkpoint func() error
	if warm != nil {
		snapBytes, found := warm.load()
		if found && n.ReadSnapshot(snapBytes, snapshotExtras(n, g)...) == nil && n.Cycle() == at {
			warmHits.Add(1)
		} else {
			if found {
				// A stale or corrupt checkpoint may have partially
				// overwritten the network before failing: rebuild and run
				// the warmup cold.
				n, g, err = BuildRun(spec)
				if err != nil {
					return Point{}, err
				}
			}
			warmMisses.Add(1)
			checkpoint = func() error { warm.store(n, g); return nil }
		}
	}
	return finishRun(spec, n, g, at, checkpoint)
}

// stepTo advances the simulation to the target cycle with injection —
// the same Tick-then-Step loop as Generator.Run, but addressed by
// absolute cycle so it composes with restored starting points.
func stepTo(n *network.Network, g *traffic.Generator, target sim.Cycle) {
	for n.Cycle() < target {
		g.Tick(n.Cycle())
		n.Step()
	}
}

// finishRun advances a simulation from its current cycle (0 for a cold
// run, the checkpoint cycle for a restored one) to the end of the spec's
// warmup+measurement schedule and assembles the Point. checkpoint, when
// non-nil, fires once when the run reaches cycle at; at == Warmup fires
// after the warmup cycles but before the measurement reset, matching the
// warm-start capture point.
func finishRun(spec RunSpec, n *network.Network, g *traffic.Generator, at sim.Cycle, checkpoint func() error) (Point, error) {
	warmEnd := sim.Cycle(spec.Dur.Warmup)
	end := warmEnd + sim.Cycle(spec.Dur.Measure)
	fired := checkpoint == nil
	step := func(target sim.Cycle) error {
		if !fired && at >= n.Cycle() && at <= target {
			stepTo(n, g, at)
			fired = true
			if err := checkpoint(); err != nil {
				return err
			}
		}
		stepTo(n, g, target)
		return nil
	}
	if n.Cycle() <= warmEnd {
		if err := step(warmEnd); err != nil {
			return Point{}, err
		}
		n.ResetMeasurement()
	}
	if err := step(end); err != nil {
		return Point{}, err
	}
	if !fired {
		return Point{}, fmt.Errorf("experiments: checkpoint cycle %d outside the run's schedule (0..%d)", at, end)
	}
	p := Point{
		Rate:       spec.Rate,
		NetLat:     n.AvgNetLatency(),
		QueueLat:   n.AvgQueueLatency(),
		TotalLat:   n.AvgTotalLatency(),
		Throughput: n.Throughput(),
		LatP50:     n.LatencyPercentile(0.50),
		LatP99:     n.LatencyPercentile(0.99),
		LatMax:     n.MaxLatency(),
		Packets:    n.Stats.MeasuredPackets,
		Upward:     n.Stats.UpwardPackets,
		Popups:     n.Stats.PopupsCompleted,
		Signals:    n.Stats.SignalsSent,
	}
	p.Saturated = p.TotalLat > latencyCap || p.TotalLat == 0
	return p, nil
}

// Curve is a latency-vs-injection-rate series for one configuration.
type Curve struct {
	Label  string
	Points []Point
	// SaturationRate is the highest offered rate whose measured latency
	// stayed under the cap; SaturationThroughput is the accepted
	// throughput there.
	SaturationRate       float64
	SaturationThroughput float64
	// ZeroLoadLatency is the latency of the first (lowest-rate) point.
	ZeroLoadLatency float64
}

// SweepRatesWith runs spec across the given offered rates and summarizes
// the curve. The sweep stops two points after saturation (the paper's
// plots end shortly past the knee). The rates run through RunAll in waves
// of opts.Jobs, and the stopping rule is applied to each wave's points in
// rate order. Because every point is an independent deterministic run and
// the truncation walks points in the order a one-worker sweep visits
// them, the resulting Curve is bit-identical at any worker count (points
// a jobs>1 wave computes beyond the serial stopping index are discarded,
// trading some redundant work for wall-clock).
func SweepRatesWith(spec RunSpec, rates []float64, label string, opts PoolOptions) (Curve, error) {
	c := Curve{Label: label}
	wave, err := opts.jobs()
	if err != nil {
		return c, err
	}
	past := 0
sweep:
	for start := 0; start < len(rates); start += wave {
		end := start + wave
		if end > len(rates) {
			end = len(rates)
		}
		specs := make([]RunSpec, 0, end-start)
		for _, r := range rates[start:end] {
			s := spec
			s.Rate = r
			specs = append(specs, s)
		}
		pts, err := RunAll(specs, opts)
		batch, _ := err.(*BatchError)
		if err != nil && batch == nil {
			return c, err
		}
		failed := map[int]error{}
		if batch != nil {
			for _, re := range batch.Failed {
				failed[re.Index] = re.Err
			}
		}
		for i, pt := range pts {
			if ferr := failed[i]; ferr != nil {
				return c, fmt.Errorf("sweep %s rate %.4f: %w", label, rates[start+i], ferr)
			}
			c.Points = append(c.Points, pt)
			if !pt.Saturated {
				c.SaturationRate = pt.Rate
				c.SaturationThroughput = pt.Throughput
				past = 0
			} else {
				past++
				if past >= 2 {
					break sweep
				}
			}
		}
	}
	if len(c.Points) > 0 {
		c.ZeroLoadLatency = c.Points[0].TotalLat
	}
	return c, nil
}

// DefaultRates returns the offered-load grid used by the latency figures.
func DefaultRates() []float64 {
	return []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04,
		0.045, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20}
}
