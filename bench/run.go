package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. An operation is one
// simulation run; it fails if it returns an error, wedges in Drain, leaks
// after the drain, fails the snapshot round trip or produces simulated
// output that differs from what is pinned for it.
type result struct {
	Workload  string
	Seed      uint64
	Traced    bool
	Attempted int
	Failed    int
	Failures  []string
	Metrics   map[string]metric
	// Digest is the check-point state of a kernel workload (see
	// kernelSim.checkpoint), kept for -update-expected.
	Digest string
}

// set reports a metric of the run's table (metricDefs); the unit comes
// from the table, and a name outside it is a bug in this program.
func (r *result) set(name string, v float64) {
	for _, d := range metricDefs(r.Traced) {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// ops counts n attempted operations; a non-nil err fails one of them.
func (r *result) ops(n int, what string, err error) bool {
	r.Attempted += n
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %s: %v", r.Workload, what, err))
	}
	return err == nil
}

// runOpts are the settings of one run.
type runOpts struct {
	Seed   uint64
	Budget time.Duration
	Traced bool
	// Div divides every simulated length (1 = the benchmark's own
	// lengths). Only bench_test.go sets it; pinned expectations apply at
	// Div 1 alone.
	Div int
	// Setups is how many times the set-up is timed at least (see
	// repeatSetup); setup_s is the median.
	Setups int
	// Par is both the sweep's worker count and the parallel kernel's
	// shard count.
	Par int
	// OutDir receives trace files and the cache legs' scratch directory.
	OutDir string
}

// workloadDef names a workload and says why it exists; BENCHMARK.json
// carries the same list.
type workloadDef struct {
	Name, Why string
	Run       func(o runOpts) *result
}

func workloads() []workloadDef {
	defs := []workloadDef{{
		Name: "fig7_sweep",
		Why:  "the paper's headline sweep through the experiments pool: per-point BuildRun, composable search, speculation; kernels run short and small",
		Run:  runFig7,
	}}
	for _, spec := range kernelSpecs() {
		spec := spec
		defs = append(defs, workloadDef{Name: spec.Name, Why: spec.Why, Run: func(o runOpts) *result { return runKernel(spec, o) }})
	}
	return defs
}

func newResult(name string, o runOpts) *result {
	r := &result{Workload: name, Seed: o.Seed, Traced: o.Traced, Metrics: map[string]metric{}}
	for _, d := range metricDefs(o.Traced) {
		r.Metrics[d.Name] = metric{Unit: d.Unit}
	}
	return r
}

// nsPerCycle is each window's cost in host nanoseconds per simulated
// cycle.
func nsPerCycle(wins []window) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = float64(w.Wall.Nanoseconds()) / float64(w.Cycles)
	}
	return out
}

// setupFloor is how long a run keeps repeating a short set-up beyond
// runOpts.Setups times, so that cheap set-ups get a median of more
// samples.
const setupFloor = 3 * time.Second

// repeatSetup reports whether the set-up should be timed once more. A
// traced run sets up once: its setup_s is not reported.
func repeatSetup(done []time.Duration, o runOpts) bool {
	if o.Traced {
		return len(done) == 0
	}
	var spent time.Duration
	for _, d := range done {
		spent += d
	}
	return len(done) < o.Setups || (spent < setupFloor && len(done) < 4*o.Setups)
}

func medianSeconds(ds []time.Duration) float64 {
	secs := make([]float64, len(ds))
	for i, d := range ds {
		secs[i] = d.Seconds()
	}
	return quantile(secs, 0.5)
}

// runKernel runs one cycle-kernel workload.
func runKernel(spec kernelSpec, o runOpts) *result {
	r := newResult(spec.Name, o)
	spec = spec.scaled(o.Div)
	if spec.Kernel == network.KernelParallel {
		spec.Shards = o.Par
	}
	if o.Traced {
		runKernelTraced(spec, o, r)
		return r
	}
	// The measured system is the first one built, on a fresh heap as a
	// user's would be; the repeats that steady setup_s come after it has
	// been measured, checked and dropped.
	k, st, err := spec.setup(o.Seed, false)
	if err != nil {
		r.ops(1, "setup", err)
		return r
	}
	setups := []time.Duration{st.total()}
	wins, cp := k.measure(o.Budget)
	rss := peakRSSMB()
	_, _, err = kernelChecks(k, o, cp)
	r.ops(1, "run", err)
	k = nil
	for repeatSetup(setups, o) {
		runtime.GC()
		_, st, err := spec.setup(o.Seed, false)
		if err != nil {
			r.ops(0, "repeated setup", err)
			break
		}
		setups = append(setups, st.total())
	}
	r.Digest = cp.Digest
	r.set("setup_s", medianSeconds(setups))
	r.set("cycles_per_s", 1e9/quantile(nsPerCycle(wins), 0.5))
	r.set("peak_rss_mb", rss)
	r.set("sim_latency_cycles", cp.Latency)
	r.set("sim_throughput", cp.Throughput)
	return r
}

// kernelChecks verifies one finished kernel run: the snapshot round trip,
// the drain, conservation and quiescence, and the pinned check-point
// state.
func kernelChecks(k *kernelSim, o runOpts, cp checkpoint) (snap snapResult, drained int64, err error) {
	if k.spec.Snapshot {
		if snap, err = k.snapshotRoundTrip(o.Seed); err != nil {
			return snap, 0, err
		}
	}
	if drained, err = k.finish(); err != nil {
		return snap, drained, err
	}
	if want, ok := expectedDigest(k.spec.Name, o.Seed); ok && o.Div == 1 && cp.Digest != want {
		err = fmt.Errorf("check-point state differs from bench/expected.json\n  got  %s\n  want %s", cp.Digest, want)
	}
	return snap, drained, err
}

// runKernelTraced is the traced run of a kernel workload: an untraced
// reference leg to the check-point, then the traced leg for the whole
// budget, whose check-point state must equal the reference's. The
// sharded workload adds an active-kernel leg on the same system.
func runKernelTraced(spec kernelSpec, o runOpts, r *result) {
	tr := newTracer(spec.Name, o.Seed)
	begin := time.Now()

	ref, _, err := spec.setup(o.Seed, false)
	if !r.ops(1, "untraced leg", err) {
		return
	}
	refWins, refCP := ref.measure(0)
	refNs := quantile(nsPerCycle(refWins), 0.5)
	ref = nil

	var activeNs float64
	if spec.Kernel == network.KernelParallel {
		active := spec
		active.Kernel = network.KernelActive
		k, _, err := active.setup(o.Seed, false)
		if err == nil {
			wins, cp := k.measure(0)
			activeNs = quantile(nsPerCycle(wins), 0.5)
			if cp.Digest != refCP.Digest {
				err = fmt.Errorf("check-point state differs between kernels\n  active   %s\n  parallel %s", cp.Digest, refCP.Digest)
			}
		}
		r.ops(1, "active-kernel leg", err)
	}

	runtime.GC()
	setupStart := time.Now()
	k, st, err := spec.setup(o.Seed, true)
	if err != nil {
		r.ops(1, "traced leg", err)
		return
	}
	tr.addSetup(0, setupStart, st.phases())
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	wins, cp := k.measure(o.Budget)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	tickName := "traffic.Generator.Tick"
	if k.eng != nil {
		tickName = "workload.Engine.Tick"
	}
	tr.addWindows(0, tickName, wins)

	checksStart := time.Now()
	snap, drained, err := kernelChecks(k, o, cp)
	if err == nil && cp.Digest != refCP.Digest {
		err = fmt.Errorf("tracing changed the simulation: check-point state differs from the untraced leg\n  traced   %s\n  untraced %s", cp.Digest, refCP.Digest)
	}
	r.ops(1, "traced leg", err)
	tr.call(0, "checks: WriteSnapshot, ReadSnapshot, Drain", checksStart)
	tr.call(0, "run", begin)
	if err := tr.write(o.OutDir); err != nil {
		r.ops(0, "trace file", err)
	}
	r.Digest = cp.Digest

	// Host-time figures cover every window; counts are read at the
	// check-point and are relative to the start of the measurement
	// window, so they repeat exactly.
	var cycles int
	var wall, tick, step, soc, eoc time.Duration
	var awake uint64
	var buffered, inflight float64
	for _, w := range wins {
		cycles += w.Cycles
		wall += w.Wall
		tick += w.Tick
		step += w.Step
		soc += w.StartOfCycle
		eoc += w.EndOfCycle
		awake += w.AwakeSum
		buffered += float64(w.Buffered)
		inflight += float64(w.InFlight)
	}
	perCycle := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), float64(cycles)) }
	r.set("topology.build_s", st.Topology.Seconds())
	r.set("network.new_s", st.New.Seconds())
	r.set("network.warmup_s", st.Warmup.Seconds())
	s0, s1 := k.start.Stats, cp.Stats
	if k.eng != nil {
		r.set("workload.tick_ns_per_cycle", perCycle(tick))
		r.set("workload.messages_delivered", float64(cp.Messages))
		r.set("workload.ops_fired", float64(cp.OpsFired))
		r.set("workload.cycles_per_iter", ratio(float64(cp.Cycles), float64(spec.Check)))
	} else {
		r.set("traffic.tick_ns_per_cycle", perCycle(tick))
		r.set("traffic.tick_share", ratio(float64(tick), float64(wall)))
		r.set("traffic.packets_born", float64(s1.BornPackets-s0.BornPackets))
	}
	r.set("network.step_ns_per_cycle", perCycle(step))
	r.set("network.step_self_ns_per_cycle", perCycle(step-soc-eoc))
	r.set("network.awake_routers_mean", ratio(float64(awake), float64(cycles)))
	r.set("network.step_ns_per_awake_router", ratio(float64(step.Nanoseconds()), float64(awake)))
	r.set("network.buffered_flits_mean", buffered/float64(len(wins)))
	r.set("network.inflight_packets_mean", inflight/float64(len(wins)))
	r.set("network.windows", float64(len(wins)))
	r.set("network.window_ns_per_cycle_p50", quantile(nsPerCycle(wins), 0.5))
	r.set("network.window_ns_per_cycle_p95", quantile(nsPerCycle(wins), 0.95))
	r.set("network.allocs_per_cycle", ratio(float64(after.Mallocs-before.Mallocs), float64(cycles)))
	r.set("network.bytes_per_cycle", ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(cycles)))
	r.set("network.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("network.heap_live_mb", float64(live.HeapAlloc)/(1<<20))
	r.set("network.drain_cycles", float64(drained))
	if spec.Kernel == network.KernelParallel {
		compute, inline := k.net.ParallelPhases()
		r.set("network.shards", float64(k.net.Shards()))
		r.set("network.parallel_inline_ratio", ratio(float64(inline), float64(compute+inline)))
		r.set("network.parallel_speedup", ratio(activeNs, refNs))
	}
	// The windows up to the check-point cover the same simulated cycles
	// as the counts, and as the untraced leg.
	toCheck := wins[:cp.Windows]
	var stepToCheck time.Duration
	for _, w := range toCheck {
		stepToCheck += w.Step
	}
	r0, r1 := k.start.Router, cp.Router
	r.set("network.step_ns_per_flit_hop", ratio(float64(stepToCheck.Nanoseconds()), float64(r1.CrossbarTravs-r0.CrossbarTravs)))
	r.set("router.flit_hops", float64(r1.CrossbarTravs-r0.CrossbarTravs))
	r.set("router.buffer_writes", float64(r1.BufferWrites-r0.BufferWrites))
	r.set("router.link_travs", float64(r1.LinkTravs-r0.LinkTravs))
	r.set("router.up_flits", float64(r1.UpFlits-r0.UpFlits))
	r.set("router.sa_requests", float64(r1.SARequests-r0.SARequests))
	r.set("router.sa_grant_ratio", ratio(float64(r1.SAGrants-r0.SAGrants), float64(r1.SARequests-r0.SARequests)))
	r.set("core.start_of_cycle_ns_per_cycle", perCycle(soc))
	r.set("core.end_of_cycle_ns_per_cycle", perCycle(eoc))
	r.set("core.end_of_cycle_share", ratio(float64(eoc), float64(wall)))
	upward := float64(s1.UpwardPackets - s0.UpwardPackets)
	completed := float64(s1.PopupsCompleted - s0.PopupsCompleted)
	r.set("core.upward_packets", upward)
	r.set("core.popups_started", float64(s1.PopupsStarted-s0.PopupsStarted))
	r.set("core.popups_completed", completed)
	r.set("core.popups_cancelled", float64(s1.PopupsCancelled-s0.PopupsCancelled))
	r.set("core.popup_useful_ratio", ratio(completed, upward))
	r.set("core.signals_sent", float64(s1.SignalsSent-s0.SignalsSent))
	if spec.Snapshot {
		r.set("snap.write_ms", float64(snap.Write.Nanoseconds())/1e6)
		r.set("snap.restore_ms", float64(snap.Restore.Nanoseconds())/1e6)
		r.set("snap.bytes", float64(snap.Bytes))
	}
	r.set("trace.overhead_pct", 100*(ratio(quantile(nsPerCycle(toCheck), 0.5), refNs)-1))
}

// sweepSetup is what a sweep pays before its first point: the topology,
// composable routing's design-time search (experiments caches it per
// process, so it is called directly here to be paid on every repeat) and
// one BuildRun per scheme.
type sweepSetup struct {
	Topology, Search, BuildRuns time.Duration
}

func setupSweep(seed uint64, dur experiments.Durations) (sweepSetup, error) {
	var st sweepSetup
	t0 := time.Now()
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	if _, err := experiments.MakeScheme(experiments.SchemeComposable, topo); err != nil {
		return st, err
	}
	t2 := time.Now()
	for _, c := range sweepCurves()[:len(experiments.ComparedSchemes())] {
		spec := c.spec(seed, dur)
		spec.Rate = experiments.DefaultRates()[0]
		if _, _, err := experiments.BuildRun(spec); err != nil {
			return st, err
		}
	}
	st = sweepSetup{Topology: t1.Sub(t0), Search: t2.Sub(t1), BuildRuns: time.Since(t2)}
	return st, nil
}

// runFig7 runs the sweep workload: the curves of sweepCurves through the
// pool with the result cache off, repeated for as long as the budget
// allows (at least once).
func runFig7(o runOpts) *result {
	r := newResult("fig7_sweep", o)
	q := experiments.QuickDurations()
	dur := experiments.Durations{Warmup: q.Warmup / o.Div, Measure: q.Measure / o.Div}
	curves := sweepCurves()

	// experiments builds composable's tables once per process, on the
	// first composable BuildRun. Let that happen before timing, so every
	// repeat of the set-up does the same work.
	warm := sweepCurve{Pattern: curves[0].Pattern, VCs: 1, Scheme: experiments.SchemeComposable}
	if _, _, err := experiments.BuildRun(warm.spec(o.Seed, dur)); err != nil {
		r.ops(1, "setup", err)
		return r
	}
	tr := newTracer(r.Workload, o.Seed)
	begin := time.Now()
	var setups []time.Duration
	var st sweepSetup
	for repeatSetup(setups, o) {
		t0 := time.Now()
		var err error
		if st, err = setupSweep(o.Seed, dur); err != nil {
			r.ops(1, "setup", err)
			return r
		}
		setups = append(setups, time.Since(t0))
		tr.addSetup(0, t0, []phase{
			{"topology.Build", st.Topology, 1},
			{"experiments.MakeScheme(composable)", st.Search, 1},
			{"experiments.BuildRun", st.BuildRuns, len(experiments.ComparedSchemes())},
		})
	}

	runtime.GC()
	var reps []sweepRep
	sweepStart := time.Now()
	for {
		rep := runSweep(curves, o.Seed, dur, o.Par)
		reps = append(reps, rep)
		if time.Since(sweepStart) >= o.Budget-rep.Wall/2 {
			break
		}
	}
	first := reps[0]
	r.ops(first.Run, "sweep", checkSweep(curves, first, o))
	for i, rep := range reps[1:] {
		var err error
		if !reflect.DeepEqual(rep.Curves, first.Curves) {
			err = fmt.Errorf("repeat %d of the sweep produced different points than the first pass", i+2)
		}
		r.ops(rep.Run, "sweep repeat", err)
	}
	var pointsPerSec []float64
	for _, rep := range reps {
		pointsPerSec = append(pointsPerSec, float64(rep.Kept)/rep.Wall.Seconds())
	}
	if !o.Traced {
		headline := first.Curves[headlineCurve(curves)]
		r.set("setup_s", medianSeconds(setups))
		r.set("cycles_per_s", quantile(pointsPerSec, 0.5)*float64(dur.Warmup+dur.Measure))
		r.set("peak_rss_mb", peakRSSMB())
		r.set("sim_latency_cycles", headline.ZeroLoadLatency)
		r.set("sim_throughput", peakThroughput(headline))
		return r
	}

	at := sweepStart
	for _, rep := range reps {
		id := tr.add(0, "sweep", at, at.Add(rep.Wall), rep.Wall, 1)
		for i, c := range curves {
			tr.add(id, "experiments.SweepRatesWith "+c.label(), at, at.Add(rep.CurveWall[i]), rep.CurveWall[i], 1)
			at = at.Add(rep.CurveWall[i])
		}
	}
	r.set("topology.build_s", st.Topology.Seconds())
	r.set("composable.search_s", st.Search.Seconds())
	r.set("network.new_s", st.BuildRuns.Seconds()/float64(len(experiments.ComparedSchemes())))
	r.set("experiments.points_per_s", quantile(pointsPerSec, 0.5))
	r.set("experiments.points_run", float64(first.Run))
	r.set("experiments.points_kept", float64(first.Kept))
	r.set("experiments.speculation_waste_ratio", 1-ratio(float64(first.Kept), float64(first.Run)))

	// The extra legs use the first pattern's 1-VC curves.
	n := len(experiments.ComparedSchemes())
	sub := sweepRep{Curves: first.Curves[:n], CurveRun: first.CurveRun[:n]}
	for _, w := range first.CurveWall[:n] {
		sub.Wall += w
	}
	serialPass(curves[:n], sub, dur, o, r, tr)
	cacheLegs(curves[:n], sub, dur, o, r, tr)
	tr.call(0, "run", begin)
	if err := tr.write(o.OutDir); err != nil {
		r.ops(0, "trace file", err)
	}
	return r
}

// headlineCurve is the index of the paper's headline curve: UPP, uniform
// random, 1 VC.
func headlineCurve(curves []sweepCurve) int {
	for i, c := range curves {
		if c.Scheme == experiments.SchemeUPP && c.VCs == 1 && c.Pattern.Name() == "uniform_random" {
			return i
		}
	}
	panic("bench: sweepCurves has no upp/uniform_random/1-VC curve")
}

// peakThroughput is the highest accepted throughput on a curve. The
// curve's own SaturationThroughput is read at the last offered rate under
// the latency cap, so across seeds it jumps by a whole step of the rate
// grid (0.08 or 0.09 here); the peak is the same quantity without the
// jump, and equals it whenever the last unsaturated point is the highest.
func peakThroughput(c experiments.Curve) float64 {
	peak := 0.0
	for _, pt := range c.Points {
		if pt.Throughput > peak {
			peak = pt.Throughput
		}
	}
	return peak
}

// checkSweep verifies the first pass of the sweep: no run failed, the
// headline curve has an unsaturated point and, at seed 11 and full
// length, the rows equal results/fig7.csv.
func checkSweep(curves []sweepCurve, rep sweepRep, o runOpts) error {
	if rep.FirstFailed != nil {
		return rep.FirstFailed
	}
	if o.Div != 1 {
		return nil
	}
	if h := rep.Curves[headlineCurve(curves)]; h.SaturationThroughput <= 0 || h.ZeroLoadLatency <= 0 {
		return fmt.Errorf("headline curve %s has no unsaturated point", h.Label)
	}
	if o.Seed != 11 {
		return nil
	}
	diffs, err := checkAgainstCSV(curves, sweepRows(curves, rep.Curves))
	if err != nil {
		return err
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%d rows differ from results/fig7.csv, first: %s", len(diffs), diffs[0])
	}
	return nil
}

// serialPass reruns every point the pool ran for the given curves one at
// a time, timing BuildRun and Run from outside. The serial points must
// equal the pool's, and their summed time against the pool's wall time is
// the pool's efficiency.
func serialPass(curves []sweepCurve, pooled sweepRep, dur experiments.Durations, o runOpts, r *result, tr *tracer) {
	var buildMs, pointS []float64
	var sum time.Duration
	var mismatch error
	runs := 0
	pass := tr.begin(0, "serial pass")
	for i, c := range curves {
		for j, rate := range experiments.DefaultRates()[:pooled.CurveRun[i]] {
			spec := c.spec(o.Seed, dur)
			spec.Rate = rate
			t0 := time.Now()
			_, _, err := experiments.BuildRun(spec)
			t1 := time.Now()
			var pt experiments.Point
			if err == nil {
				pt, err = experiments.Run(spec)
			}
			t2 := time.Now()
			id := tr.add(pass, fmt.Sprintf("point %s rate=%g", c.label(), rate), t0, t2, t2.Sub(t0), 1)
			tr.add(id, "experiments.BuildRun", t0, t1, t1.Sub(t0), 1)
			tr.add(id, "experiments.Run", t1, t2, t2.Sub(t1), 1)
			buildMs = append(buildMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
			pointS = append(pointS, t2.Sub(t1).Seconds())
			sum += t2.Sub(t1)
			runs++
			if err == nil && j < len(pooled.Curves[i].Points) && pt != pooled.Curves[i].Points[j] {
				err = fmt.Errorf("%s rate %g: serial run differs from the pool's point", c.label(), rate)
			}
			if err != nil && mismatch == nil {
				mismatch = err
			}
		}
	}
	tr.finish(pass)
	r.ops(runs, "serial pass", mismatch)
	r.set("experiments.build_run_ms_p50", quantile(buildMs, 0.5))
	r.set("experiments.point_s_p50", quantile(pointS, 0.5))
	r.set("experiments.point_s_max", quantile(pointS, 1))
	r.set("experiments.pool_efficiency", ratio(sum.Seconds(), float64(o.Par)*pooled.Wall.Seconds()))
}

// cacheLegs runs the given curves three more times with the result cache
// on, in a fresh directory: cold (simulate, store the result and the
// warm-start checkpoint), hit (read only) and warm (results evicted:
// restore the checkpoint, then measure). Every leg must reproduce the
// uncached curves.
func cacheLegs(curves []sweepCurve, uncached sweepRep, dur experiments.Durations, o runOpts, r *result, tr *tracer) {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		r.ops(1, "cache legs", err)
		return
	}
	dir, err := os.MkdirTemp(o.OutDir, "cache-")
	if err != nil {
		r.ops(1, "cache legs", err)
		return
	}
	defer os.RemoveAll(dir)
	os.Setenv("UPP_CACHE_DIR", dir)
	defer os.Unsetenv("UPP_CACHE_DIR")

	h0, m0, w0, _ := experiments.CacheCounters()
	leg := func(name string) sweepRep {
		t0 := time.Now()
		rep := runSweep(curves, o.Seed, dur, o.Par)
		tr.call(0, "cache leg "+name, t0)
		err := rep.FirstFailed
		if err == nil && !reflect.DeepEqual(rep.Curves, uncached.Curves) {
			err = fmt.Errorf("curves differ from the uncached sweep")
		}
		r.ops(rep.Run, "cache leg "+name, err)
		return rep
	}
	cold := leg("cold")
	var bytes int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				bytes += info.Size()
			}
		}
		return nil
	})
	hit := leg("hit")
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		r.ops(0, "cache legs", err)
	}
	warm := leg("warm")
	h1, m1, w1, _ := experiments.CacheCounters()
	r.set("experiments.cache_cold_points_per_s", float64(cold.Kept)/cold.Wall.Seconds())
	r.set("experiments.cache_hit_us_per_point", float64(hit.Wall.Microseconds())/float64(hit.Run))
	r.set("experiments.cache_warm_points_per_s", float64(warm.Kept)/warm.Wall.Seconds())
	r.set("experiments.cache_hits", float64(h1-h0))
	r.set("experiments.cache_misses", float64(m1-m0))
	r.set("experiments.warm_hits", float64(w1-w0))
	r.set("experiments.cache_bytes", float64(bytes))
}
