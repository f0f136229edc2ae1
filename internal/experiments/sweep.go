package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"

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
// ends with errCancelled, stores no Point and counts in no cache counter.
// A warm-start checkpoint it wrote before that stays valid: it holds the
// state at the end of the warmup, whatever came after.
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
	pt, err := runMeasured(spec, newWarmState(dir, env), stop)
	if errors.Is(err, errCancelled) {
		return pt, err
	}
	cacheMisses.Add(1)
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
	var counter *atomic.Uint64 // the warm-start lookup's, counted unless the run is cancelled
	if warm != nil {
		counter = &warmHits
		snapBytes, found := warm.load()
		if !found || n.ReadSnapshot(snapBytes, snapshotExtras(n, g)...) != nil || n.Cycle() != at {
			if found {
				// A stale or corrupt checkpoint may have partially
				// overwritten the network before failing: rebuild and run
				// the warmup cold.
				n, g, err = BuildRun(spec)
				if err != nil {
					return Point{}, err
				}
			}
			counter = &warmMisses
			checkpoint = func() error { warm.store(n, g); return nil }
		}
	}
	pt, err := finishRun(spec, n, g, at, checkpoint, stop)
	if counter != nil && !errors.Is(err, errCancelled) {
		counter.Add(1)
	}
	return pt, err
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

// A SweepCurve is one curve of a sweep: Spec at each of Rates in order
// or, when Rates is nil, once (at its own Rate, or its Workload to
// completion). Sweep fills in its Curve; the Label names it.
type SweepCurve struct {
	Spec  RunSpec
	Rates []float64
	Curve
}

// Sweep measures every curve, all their points rolling through one pool
// (see dispatch): a worker takes the next point as soon as it is free,
// whichever curve it belongs to, so no curve's last point idles the
// other workers. A curve stops two points after saturation (the paper's
// plots end shortly past the knee), or at its first failed point. The
// stopping rule walks each curve's finished points in rate order, as a
// one-worker sweep visits them; once it fixes a curve's stop, none of the
// curve's later rates starts and those already running are cancelled and
// discarded. Because every point is an independent deterministic run and
// each curve keeps exactly the serial sweep's points, every Curve is
// bit-identical at any worker count, and a failure at a rate a serial
// sweep never reaches is not reported. A failed curve keeps its points
// before the failure and does not stop the others; the error is the
// first failed curve's, naming it.
func Sweep(cs []SweepCurve, opts PoolOptions) error {
	run := opts.run
	if run == nil {
		run = runPoint
	}
	// Point k is curve curve[k] at rate rate[k], and curve c's points are
	// at[c], ordered round by round: every curve's first rate, then every
	// second rate, and so on, so a curve's next rate mostly starts after
	// its earlier ones have finished and few points run past a stop. end
	// is each curve's serial length once the walk fixes it, walked the
	// finished prefix the stopping rule has read, and past the saturated
	// points at its end.
	var curve []int
	var rate []float64
	rates, at, end := make([][]float64, len(cs)), make([][]int, len(cs)), make([]int, len(cs))
	n := 0
	for c := range cs {
		if rates[c] = cs[c].Rates; rates[c] == nil {
			rates[c] = []float64{cs[c].Spec.Rate}
		}
		end[c] = len(rates[c])
		n += end[c]
	}
	for r := 0; len(curve) < n; r++ {
		for c := range cs {
			if r < end[c] {
				at[c] = append(at[c], len(curve))
				curve, rate = append(curve, c), append(rate, rates[c][r])
			}
		}
	}
	pts := make([]Point, len(curve))
	errs := make([]error, len(curve))
	finished := make([]bool, len(curve))
	walked, past := make([]int, len(cs)), make([]int, len(cs))
	done := 0
	dispatch(len(curve), opts, func(k int, stop func() bool) {
		c := &cs[curve[k]]
		if k == at[curve[k]][0] {
			opts.Progress.log("sweeping %s", c.Label)
		}
		spec := c.Spec
		spec.Rate = rate[k]
		pts[k], errs[k] = run(opts.machine(spec), stop)
	}, func(k int) []int {
		if errors.Is(errs[k], errCancelled) {
			cancelledRuns.Add(1)
			return nil
		}
		if done++; opts.OnRun != nil {
			opts.OnRun(done, len(curve))
		}
		finished[k] = true
		c := curve[k]
		for ; walked[c] < end[c] && finished[at[c][walked[c]]]; walked[c]++ {
			switch i := at[c][walked[c]]; {
			case errs[i] != nil:
				end[c] = walked[c] + 1
			case !pts[i].Saturated:
				past[c] = 0
			default:
				if past[c]++; past[c] >= 2 {
					end[c] = walked[c] + 1
				}
			}
		}
		return at[c][end[c]:]
	})
	var failed error
	for c := range cs {
		sc := &cs[c]
		sc.Curve = Curve{Label: sc.Label}
		for _, k := range at[c][:end[c]] {
			pt := pts[k]
			if err := errs[k]; err != nil {
				if sc.Rates != nil {
					err = fmt.Errorf("sweep %s rate %.4f: %w", sc.Label, rate[k], err)
				} else {
					err = fmt.Errorf("sweep %s: %w", sc.Label, err)
				}
				failed = cmp.Or(failed, err)
				break
			}
			sc.Points = append(sc.Points, pt)
			if !pt.Saturated {
				sc.SaturationRate = pt.Rate
				sc.SaturationThroughput = pt.Throughput
			}
		}
		if len(sc.Points) > 0 {
			sc.ZeroLoadLatency = sc.Points[0].TotalLat
		}
	}
	return failed
}

// SweepRatesWith sweeps spec across the given offered rates: one curve
// of Sweep.
func SweepRatesWith(spec RunSpec, rates []float64, label string, opts PoolOptions) (Curve, error) {
	cs := []SweepCurve{{Spec: spec, Rates: rates, Curve: Curve{Label: label}}}
	err := Sweep(cs, opts)
	return cs[0].Curve, err
}

// DefaultRates returns the offered-load grid used by the latency figures.
func DefaultRates() []float64 {
	return []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04,
		0.045, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20}
}
