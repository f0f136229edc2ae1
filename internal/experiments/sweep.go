package experiments

import (
	"fmt"

	"uppnoc/internal/coherence"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

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
	// A closed-loop run (RunSpec.Workload) has no offered rate; it reports
	// whether the workload finished within the horizon and when, the
	// messages delivered (a collective's chunks over all iterations, a
	// coherence run's protocol messages), progress at the horizon (ops, or
	// a coherence run's accesses) and remote control's injection holds. A
	// rate-driven run leaves them zero.
	Completed      bool      `json:",omitempty"`
	FinishCycle    sim.Cycle `json:",omitempty"`
	Messages       uint64    `json:",omitempty"`
	OpsFired       int       `json:",omitempty"`
	OpsTotal       int       `json:",omitempty"`
	InjectionHolds uint64    `json:",omitempty"`
	// Events is a coherence run's datapath event counts summed over its
	// routers, the energy model's input (EnergyJ); nil for any other run.
	// It and DownLinks are pointers so that Points stay comparable.
	Events *router.Stats `json:",omitempty"`
	// DownLinks is each boundary router's down-link flits over the whole
	// run, warmup included; nil unless RunSpec.DownLinks.
	DownLinks *[]BoundaryLoad `json:",omitempty"`
	// Trace is the recorded message trace; nil unless RunSpec.Record.
	Trace *workload.Trace `json:"-"`
}

// latencyCap marks a run as saturated when average total latency exceeds
// it (the paper's Fig. 7 y-axis tops out at 100 cycles).
const latencyCap = 100.0

// Run executes one simulation point: Pattern at Rate over the spec's
// warmup and measurement, or the closed-loop Workload to completion or
// the horizon. When the result cache is enabled (UPP_CACHE_DIR, see
// cache.go) and the spec is canonicalizable, a cached Point is returned
// without simulating, and a cold rate-driven run may restore a warm-start
// checkpoint to skip the warmup phase; both reproduce the uncached run
// bit-identically.
func Run(spec RunSpec) (Point, error) { return runPoint(spec, nil) }

// stopEvery is how many cycles a rate-driven run goes between reads of
// its stop check.
const stopEvery = 256

// runPoint is Run as the pool calls it. stop, when non-nil, is read every
// stopEvery cycles of a rate-driven run; once it reports true the run
// ends with errCancelled and stores no Point. A warm-start checkpoint it
// wrote before that stays valid: it holds the state at the end of the
// warmup, whatever came after.
func runPoint(spec RunSpec, stop func() bool) (Point, error) {
	dir := CacheDir()
	env, canonical, cacheable := canonicalSpec(spec)
	if dir == "" || !cacheable {
		return runMeasured(spec, nil, stop)
	}
	hash := cacheHash(canonical)
	if pt, ok := loadCachedPoint(dir, hash, canonical); ok {
		cacheHits.Add(1)
		return pt, nil
	}
	cacheMisses.Add(1)
	pt, err := runMeasured(spec, newWarmState(dir, env), stop)
	if err == nil {
		storeCachedPoint(dir, hash, canonical, pt)
	}
	return pt, err
}

// BuildRun assembles the machine of one rate-driven spec and attaches its
// generator (seeded Seed+7777), without running a cycle. Run drives this;
// uppsim's checkpoint flags and the warm-start machinery rebuild identical
// environments from it.
func BuildRun(spec RunSpec) (*network.Network, *traffic.Generator, error) {
	if spec.Workload != "" {
		return nil, nil, fmt.Errorf("experiments: spec names workload %q; a rate-driven run takes Pattern and Rate", spec.Workload)
	}
	s, err := Assemble(spec)
	if err != nil {
		return nil, nil, err
	}
	return s.Net, s.Generator(spec.Pattern, spec.Rate, spec.Seed+7777), nil
}

// runMeasured is the cold path of Run: build the environment, warm up
// (or restore a warm-start checkpoint), measure, summarize. warm may be
// nil (caching off, a workload spec or one not canonicalizable); stop is
// runPoint's (a workload spec does not read it).
func runMeasured(spec RunSpec, warm *warmState, stop func() bool) (Point, error) {
	if spec.Workload != "" {
		return runWorkload(spec)
	}
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
	return finishRun(spec, n, g, at, checkpoint, stop)
}

// finishRun advances a simulation from its current cycle (0 for a cold
// run, the checkpoint cycle for a restored one) to the end of the spec's
// warmup+measurement schedule and assembles the Point. checkpoint, when
// non-nil, fires once when the run reaches cycle at, which the caller
// keeps inside the schedule (RunCheckpointed checks it); at == Warmup fires
// after the warmup cycles but before the measurement reset, matching the
// warm-start capture point. stop, when non-nil, is read every stopEvery
// cycles, and the run ends with errCancelled once it reports true.
func finishRun(spec RunSpec, n *network.Network, g *traffic.Generator, at sim.Cycle, checkpoint func() error, stop func() bool) (Point, error) {
	warmEnd := sim.Cycle(spec.Dur.Warmup)
	end := warmEnd + sim.Cycle(spec.Dur.Measure)
	var done func() bool
	if stop != nil {
		done = func() bool { return n.Cycle()%stopEvery == 0 && stop() }
	}
	drive := func(target sim.Cycle) error {
		if Drive(n, g, target, done); n.Cycle() < target {
			return errCancelled
		}
		return nil
	}
	fired := checkpoint == nil
	step := func(target sim.Cycle) error {
		if !fired && at >= n.Cycle() && at <= target {
			if err := drive(at); err != nil {
				return err
			}
			fired = true
			if err := checkpoint(); err != nil {
				return err
			}
		}
		return drive(target)
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
	p := measure(spec, n)
	p.Rate, p.Throughput = spec.Rate, n.Throughput()
	p.Saturated = p.TotalLat > latencyCap || p.TotalLat == 0
	return p, nil
}

// measure reads the latency and recovery statistics every run reports,
// and the down-link loads when the spec asks for them.
func measure(spec RunSpec, n *network.Network) Point {
	p := Point{
		NetLat:   n.AvgNetLatency(),
		QueueLat: n.AvgQueueLatency(),
		TotalLat: n.AvgTotalLatency(),
		LatP50:   n.LatencyPercentile(0.50),
		LatP99:   n.LatencyPercentile(0.99),
		LatMax:   n.MaxLatency(),
		Packets:  n.Stats.MeasuredPackets,
		Upward:   n.Stats.UpwardPackets,
		Popups:   n.Stats.PopupsCompleted,
		Signals:  n.Stats.SignalsSent,
	}
	if spec.DownLinks {
		p.DownLinks = downLinks(n)
	}
	return p
}

// runWorkload is the cold path of Run for a closed-loop spec: the
// collective driven to completion or to the horizon (a coherence spec
// runs through runCoherence). Completion implies
// every injected message was consumed (Program.Validate proves the closed
// loop is closed), so a completed run needs no drain: the network is
// empty at FinishCycle, and a packet still in flight is an error.
func runWorkload(spec RunSpec) (Point, error) {
	sm, err := Assemble(spec)
	if err != nil {
		return Point{}, err
	}
	n := sm.Net
	if coherence.IsSpec(spec.Workload) {
		return runCoherence(spec, n)
	}
	eng, ws, err := workloadEngine(n, spec.Workload)
	if err != nil {
		return Point{}, err
	}
	eng.Iterations = ws.EngineIterations()
	var rec *workload.TraceRecorder
	if spec.Record {
		rec = workload.NewTraceRecorder(len(n.Topo.Cores()))
		eng.SetRecorder(rec)
	}
	Drive(n, eng, sim.Cycle(spec.horizon()), eng.Done)
	p := measure(spec, n)
	p.Completed, p.Messages, p.InjectionHolds = eng.Done(), eng.MessagesDelivered, n.Stats.InjectionHolds
	p.OpsFired, p.OpsTotal = eng.Progress()
	if rec != nil {
		p.Trace = rec.Trace()
	}
	if p.Completed {
		p.FinishCycle = eng.FinishCycle()
		if n.InFlight() != 0 {
			return p, fmt.Errorf("experiments: %s finished with %d packets in flight — the closed loop did not close", spec.Workload, n.InFlight())
		}
	}
	return p, nil
}

// workloadEngine parses a workload spec, builds its program for n's cores
// and attaches the closed-loop engine that drives it.
func workloadEngine(n *network.Network, spec string) (*workload.Engine, workload.Spec, error) {
	ws, err := workload.ParseSpec(spec)
	if err != nil {
		return nil, ws, err
	}
	prog, err := ws.Build(len(n.Topo.Cores()))
	if err != nil {
		return nil, ws, err
	}
	eng, err := workload.NewEngine(n, prog)
	return eng, ws, err
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
// plots end shortly past the knee), or at the first failed rate. The
// rates roll through the pool (see dispatch): a worker takes the next
// rate as soon as it is free, and the stopping rule walks the finished
// points in rate order, as a one-worker sweep visits them. Once it fixes
// the stop, no later rate starts and those already running are cancelled
// and discarded. Because every point is an independent deterministic run
// and the curve keeps exactly the serial sweep's points, the Curve is
// bit-identical at any worker count, and a failure at a rate a serial
// sweep never reaches is not reported.
func SweepRatesWith(spec RunSpec, rates []float64, label string, opts PoolOptions) (Curve, error) {
	specs := make([]RunSpec, len(rates))
	for i, r := range rates {
		specs[i], specs[i].Rate = spec, r
	}
	pts := make([]Point, len(rates))
	errs := make([]error, len(rates))
	finished := make([]bool, len(rates))
	// end is the serial sweep's length once the walk fixes it; walked is
	// the finished prefix the stopping rule has read.
	end, walked, past := len(rates), 0, 0
	opts.runEach(specs, pts, errs, func(i int) int {
		finished[i] = true
		for ; walked < end && finished[walked]; walked++ {
			switch {
			case errs[walked] != nil:
				end = walked + 1
			case !pts[walked].Saturated:
				past = 0
			default:
				if past++; past >= 2 {
					end = walked + 1
				}
			}
		}
		return end
	})
	c := Curve{Label: label}
	for i, pt := range pts[:end] {
		if errs[i] != nil {
			return c, fmt.Errorf("sweep %s rate %.4f: %w", label, rates[i], errs[i])
		}
		c.Points = append(c.Points, pt)
		if !pt.Saturated {
			c.SaturationRate = pt.Rate
			c.SaturationThroughput = pt.Throughput
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
