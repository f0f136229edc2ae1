package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

// kernelSpec describes one cycle-kernel workload: a system, a traffic
// source and the fixed simulated schedule (warm-up, check-point) that the
// simulated metrics are read at. Host time is measured in windows of
// Window cycles for as long as the run is asked to measure; the simulated
// metrics come from the check-point alone, so they do not depend on how
// many windows the host managed to run.
type kernelSpec struct {
	Name string
	// Why says what the workload is for; BENCHMARK.json carries it too.
	Why   string
	Build func() (*topology.Topology, error)
	// Kernel and Shards go to network.Config. Shards is set from the
	// host's CPU count when the workload runs (runOpts.Shards) and is
	// ignored by the active kernel.
	Kernel string
	Shards int
	// Open loop: Rate > 0 drives traffic.Generator (uniform random) at
	// Rate flits/cycle/node. Closed loop: Program is a workload spec
	// repeated without end; Warmup and Check then count iterations. The
	// collectives are fully deterministic, so the seed enters a closed
	// loop as compute skew: every op gets a seed-drawn local delay of
	// 0..MaxSkew cycles, as ranks that do not run in lockstep would.
	Rate    float64
	Program string
	MaxSkew int
	Warmup  int
	Check   int
	Window  int
	// Snapshot adds the untimed WriteSnapshot -> ReadSnapshot round trip.
	Snapshot bool
}

// scaled divides the simulated schedule by div (bench_test.go runs the
// workloads at 1/200 length). A scaled run is not comparable with the
// pinned expectations.
func (s kernelSpec) scaled(div int) kernelSpec {
	shrink := func(v int) int {
		if v = v / div; v < 1 {
			v = 1
		}
		return v
	}
	if div > 1 {
		s.Warmup, s.Check, s.Window = shrink(s.Warmup), shrink(s.Check), shrink(s.Window)
	}
	return s
}

// kernelSpecs returns the three cycle-kernel workloads. Lengths are the
// issue's, scaled by the one common factor that fits the driver's run
// budget (see README.md): the check-point sits about a third of the way
// into a 10 s window on the 2-CPU reference box.
func kernelSpecs() []kernelSpec {
	return []kernelSpec{
		{
			Name:    "chiplet80_a2a",
			Why:     "closed-loop all-to-all on 80 routers under UPP: popup recovery, NI reassembly and the workload engine are hot; fits in cache",
			Build:   func() (*topology.Topology, error) { return topology.Build(topology.BaselineConfig()) },
			Kernel:  network.KernelActive,
			Program: "all_to_all:flits=10",
			MaxSkew: 15,
			Warmup:  1, Check: 24, Window: 1000,
		},
		{
			Name:   "mesh2048_uniform",
			Why:    "open-loop uniform traffic on 2048 routers, active kernel: working set exceeds cache, router walk and detection scan dominate; no popups",
			Build:  func() (*topology.Topology, error) { return topology.BuildScale(topology.ScaleLargeConfig()) },
			Kernel: network.KernelActive,
			Rate:   0.01,
			Warmup: 2000, Check: 12000, Window: 200,
			Snapshot: true,
		},
		{
			Name:   "mesh8192_sharded",
			Why:    "same traffic on 8192 routers under the parallel kernel: the only workload that runs the compute/commit split and shard hand-off",
			Build:  func() (*topology.Topology, error) { return topology.BuildScale(topology.ScaleHugeConfig()) },
			Kernel: network.KernelParallel,
			Rate:   0.005,
			Warmup: 1000, Check: 2000, Window: 25,
			Snapshot: true,
		},
	}
}

// kernelSim is one built system with its traffic source attached.
type kernelSim struct {
	spec kernelSpec
	net  *network.Network
	gen  *traffic.Generator
	eng  *workload.Engine
	// hooks is the traced scheme wrapper, nil in an untraced run.
	hooks *tracedScheme
	// base is the schedule position (see pos) the measurement window
	// opened at; zero during warm-up.
	base int
	// start is the state the measurement window opened at: the counters
	// the network does not reset itself are reported relative to it.
	start struct {
		Cycle  sim.Cycle
		Stats  network.Stats
		Router router.Stats
	}
}

// setupTimes is the wall time of each set-up phase of one build.
type setupTimes struct {
	Topology, Scheme, New, Warmup time.Duration
}

func (t setupTimes) total() time.Duration { return t.Topology + t.Scheme + t.New + t.Warmup }

func (t setupTimes) phases() []phase {
	return []phase{{"topology.Build", t.Topology, 1}, {"experiments.MakeScheme", t.Scheme, 1}, {"network.New", t.New, 1}, {"warmup", t.Warmup, 1}}
}

// setup builds the system from scratch and runs the warm-up: everything
// that happens before the first timed cycle. traced wraps the scheme so
// its per-cycle hooks are timed from outside.
func (s kernelSpec) setup(seed uint64, traced bool) (*kernelSim, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	topo, err := s.Build()
	if err != nil {
		return nil, st, fmt.Errorf("topology: %w", err)
	}
	t1 := time.Now()
	scheme, err := experiments.MakeScheme(experiments.SchemeUPP, topo)
	if err != nil {
		return nil, st, fmt.Errorf("scheme: %w", err)
	}
	k := &kernelSim{spec: s}
	if traced {
		k.hooks = &tracedScheme{Scheme: scheme}
		scheme = k.hooks
	}
	t2 := time.Now()
	cfg := network.DefaultConfig()
	cfg.Kernel = s.Kernel
	cfg.Shards = s.Shards
	cfg.Seed = seed + 1
	k.net, err = network.New(topo, cfg, scheme)
	if err != nil {
		return nil, st, fmt.Errorf("network.New: %w", err)
	}
	if k.hooks != nil {
		k.hooks.net = k.net
	}
	if s.Program != "" {
		ws, err := workload.ParseSpec(s.Program)
		if err != nil {
			return nil, st, err
		}
		prog, err := ws.Build(len(topo.Cores()))
		if err != nil {
			return nil, st, err
		}
		skew := sim.NewRNG(seed)
		for r := range prog.Ops {
			for i := range prog.Ops[r] {
				prog.Ops[r][i].Compute = skew.Intn(s.MaxSkew + 1)
			}
		}
		if k.eng, err = workload.NewEngine(k.net, prog); err != nil {
			return nil, st, err
		}
		k.eng.Iterations = 1 << 30
	} else {
		k.gen = traffic.NewGenerator(k.net, traffic.UniformRandom{}, s.Rate, seed+7777)
	}
	t3 := time.Now()
	for !k.reached(s.Warmup) {
		k.step()
	}
	k.net.ResetMeasurement()
	k.base = k.pos()
	k.start.Cycle, k.start.Stats, k.start.Router = k.net.Cycle(), k.net.Stats, k.net.RouterStats()
	t4 := time.Now()
	st = setupTimes{Topology: t1.Sub(t0), Scheme: t2.Sub(t1), New: t3.Sub(t2), Warmup: t4.Sub(t3)}
	return k, st, nil
}

// tick injects this cycle's traffic.
func (k *kernelSim) tick() {
	if k.eng != nil {
		k.eng.Tick(k.net.Cycle())
	} else {
		k.gen.Tick(k.net.Cycle())
	}
}

// step injects this cycle's traffic and advances the network one cycle.
func (k *kernelSim) step() {
	k.tick()
	k.net.Step()
}

// pos is the position in the simulated schedule: completed iterations
// for a closed loop, cycles for an open loop.
func (k *kernelSim) pos() int {
	if k.eng != nil {
		return len(k.eng.IterationsDone())
	}
	return int(k.net.Cycle())
}

// reached reports whether the schedule is n positions past the start of
// the measurement window (past cycle zero during warm-up).
func (k *kernelSim) reached(n int) bool { return k.pos() >= k.base+n }

func (k *kernelSim) extras() []network.SnapshotExtra {
	if k.eng != nil {
		return []network.SnapshotExtra{k.eng}
	}
	return []network.SnapshotExtra{k.gen}
}

// window is one timing window of the measured loop.
type window struct {
	Cycles int
	Wall   time.Duration
	// Traced runs only: time inside each layer's calls, and occupancy
	// sampled at the window's end.
	Tick, Step, StartOfCycle, EndOfCycle time.Duration
	AwakeSum                             uint64
	Buffered, InFlight                   int
	Start                                time.Time
}

// checkpoint is the simulated state read at the pinned position of the
// schedule. Every field repeats exactly for a fixed seed.
type checkpoint struct {
	Cycles     sim.Cycle // measured cycles up to the check-point
	Windows    int       // timing windows up to the check-point
	Latency    float64
	Throughput float64
	// Stats and Router are totals since cycle zero.
	Stats    network.Stats
	Router   router.Stats
	Messages uint64
	OpsFired int
	Digest   string
}

func (k *kernelSim) checkpoint() checkpoint {
	n := k.net
	c := checkpoint{
		Cycles:     n.Cycle() - k.start.Cycle,
		Latency:    n.AvgTotalLatency(),
		Throughput: n.Throughput(),
		Stats:      n.Stats,
		Router:     n.RouterStats(),
	}
	if k.eng != nil {
		c.Messages = k.eng.MessagesDelivered
		done, total := k.eng.Progress()
		c.OpsFired = len(k.eng.IterationsDone())*total + done
	}
	// The digest names each counter it covers, so a mismatch reads as
	// "which counter moved" and a counter added to Stats by a later
	// change does not alter it.
	s, r := c.Stats, c.Router
	c.Digest = fmt.Sprintf("cycle=%d born=%d inj=%d injflits=%d ejflits=%d ej=%d consumed=%d measured=%d netlat=%d qlat=%d "+
		"upward=%d started=%d cancelled=%d completed=%d signals=%d reservations=%d "+
		"bufw=%d bufr=%d xbar=%d link=%d sareq=%d sagrant=%d up=%d p50=%d p99=%d max=%d",
		n.Cycle(), s.BornPackets, s.InjectedPackets, s.InjectedFlits, s.EjectedFlits, s.EjectedPackets, s.ConsumedPackets,
		s.MeasuredPackets, s.NetLatencySum, s.QueueLatencySum,
		s.UpwardPackets, s.PopupsStarted, s.PopupsCancelled, s.PopupsCompleted, s.SignalsSent, s.ReservationsGranted,
		r.BufferWrites, r.BufferReads, r.CrossbarTravs, r.LinkTravs, r.SARequests, r.SAGrants, r.UpFlits,
		n.LatencyPercentile(0.50), n.LatencyPercentile(0.99), n.MaxLatency())
	return c
}

// measure runs timing windows until the check-point has been passed and
// budget has elapsed, and returns the windows and the check-point state.
// A window ends early at the check-point so that state is read at the
// exact cycle on any host.
func (k *kernelSim) measure(budget time.Duration) ([]window, checkpoint) {
	var (
		wins    []window
		cp      checkpoint
		checked bool
	)
	runtime.GC()
	begin := time.Now()
	for !checked || time.Since(begin) < budget {
		w := window{Start: time.Now()}
		if k.hooks != nil {
			k.hooks.reset()
		}
		for w.Cycles < k.spec.Window {
			if k.hooks == nil {
				k.step()
			} else {
				t0 := time.Now()
				k.tick()
				t1 := time.Now()
				k.net.Step()
				w.Tick += t1.Sub(t0)
				w.Step += time.Since(t1)
			}
			w.Cycles++
			if !checked && k.reached(k.spec.Check) {
				break
			}
		}
		w.Wall = time.Since(w.Start)
		if k.hooks != nil {
			w.StartOfCycle, w.EndOfCycle, w.AwakeSum = k.hooks.startNs, k.hooks.endNs, k.hooks.awakeSum
			rs := k.net.RouterStats()
			w.Buffered = int(rs.BufferWrites - rs.BufferReads)
			w.InFlight = k.net.InFlight()
		}
		wins = append(wins, w)
		if !checked && k.reached(k.spec.Check) {
			cp = k.checkpoint()
			cp.Windows = len(wins)
			checked = true
		}
	}
	return wins, cp
}

// snapResult is the outcome of the snapshot round trip.
type snapResult struct {
	Write, Restore time.Duration
	Bytes          int
}

// snapshotRoundTrip writes the running system's snapshot, restores it
// into a freshly built twin and writes the twin's snapshot: the two byte
// strings must be equal.
func (k *kernelSim) snapshotRoundTrip(seed uint64) (snapResult, error) {
	var res snapResult
	var a bytes.Buffer
	t0 := time.Now()
	if err := k.net.WriteSnapshot(&a, k.extras()...); err != nil {
		return res, fmt.Errorf("WriteSnapshot: %w", err)
	}
	res.Write = time.Since(t0)
	res.Bytes = a.Len()
	cold := k.spec
	cold.Warmup = 0
	twin, _, err := cold.setup(seed, false)
	if err != nil {
		return res, fmt.Errorf("snapshot twin: %w", err)
	}
	t1 := time.Now()
	if err := twin.net.ReadSnapshot(a.Bytes(), twin.extras()...); err != nil {
		return res, fmt.Errorf("ReadSnapshot: %w", err)
	}
	res.Restore = time.Since(t1)
	var b bytes.Buffer
	if err := twin.net.WriteSnapshot(&b, twin.extras()...); err != nil {
		return res, fmt.Errorf("WriteSnapshot(twin): %w", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return res, fmt.Errorf("snapshot round trip: restored state re-serializes to %d bytes that differ from the %d written", b.Len(), a.Len())
	}
	return res, nil
}

// finish stops injection, drains the network and checks that nothing
// leaked. It returns the cycles the drain took.
func (k *kernelSim) finish() (sim.Cycle, error) {
	from := k.net.Cycle()
	if err := k.net.Drain(400000, 50000); err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	drained := k.net.Cycle() - from
	if err := k.net.CheckConservation(); err != nil {
		return drained, fmt.Errorf("conservation: %w", err)
	}
	if err := k.net.CheckQuiescent(); err != nil {
		return drained, fmt.Errorf("quiescence: %w", err)
	}
	return drained, nil
}
