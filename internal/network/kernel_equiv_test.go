package network_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

// equivCase is one workload of the kernel-equivalence grid: a system, a
// scheme, a router arch and a traffic source, driven for cycles cycles or,
// closed-loop, to its finish.
type equivCase struct {
	name    string
	topo    func() *topology.Topology
	scheme  string          // "none", "upp", "remote_control" or "composable"
	arch    string          // "" is iq
	pattern traffic.Pattern // nil is uniform random
	rate    float64
	// source, when set, replaces the seed-42 generator of pattern at rate.
	source func(t testing.TB, n *network.Network) source
	cycles int
	flaps  int // link flaps of the case's fault plan
	// upward and holds require the reference run to select an upward
	// packet or hold an injection, so the path the case is for runs.
	upward, holds bool
	// vet checks each run beyond its digest (engagement, a source's own
	// counters).
	vet func(t *testing.T, r *equivRun)
	// concurrent drives every variant after the reference at once.
	concurrent bool
}

// source is the traffic the runner ticks before every Step; its state
// rides in the snapshots. A closed-loop source also reports its finish.
type source interface {
	Tick(sim.Cycle)
	network.SnapshotExtra
}

type closedLoop interface {
	Done() bool
	FinishCycle() sim.Cycle
}

// variant is one way to run a case; no part of the digest may depend on
// it.
type variant struct {
	kernel   string
	shards   int  // parallel workers, 0 for the default
	procs    int  // GOMAXPROCS during the run, 0 to leave it
	unpooled bool // packet recycling off
}

func (v variant) String() string {
	s := v.kernel
	if v.shards > 0 {
		s += fmt.Sprintf("/%d", v.shards)
	}
	if v.procs > 0 {
		s += fmt.Sprintf("/procs=%d", v.procs)
	}
	if v.unpooled {
		s += "/unpooled"
	}
	return s
}

var (
	active   = variant{kernel: network.KernelActive}
	naive    = variant{kernel: network.KernelNaive}
	parallel = variant{kernel: network.KernelParallel}
)

// equivRun is one variant's run of a case and its digest: the flit trace,
// Stats (on n), the closed-loop finish cycle and the UPWS bytes at mid-run
// and at the end.
type equivRun struct {
	v        variant
	n        *network.Network
	src      source
	trace    bytes.Buffer
	finish   sim.Cycle
	mid, end []byte
	err      error
}

func (c equivCase) build(t testing.TB, v variant) *equivRun {
	t.Helper()
	topo := c.topo()
	var sch network.Scheme = network.None{}
	switch c.scheme {
	case "upp":
		sch = core.New(core.DefaultConfig())
	case "remote_control":
		sch = remotectl.New()
	case "composable":
		tables, err := composable.BuildTables(topo)
		if err != nil {
			t.Fatal(err)
		}
		sch = tables
	}
	cfg := network.DefaultConfig()
	cfg.Kernel, cfg.Shards, cfg.RouterArch = v.kernel, v.shards, c.arch
	build := network.New
	if v.unpooled {
		build = network.NewUnpooled
	}
	n, err := build(topo, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	if c.flaps > 0 {
		plan, err := faults.ParseSpec(n.Topo, fmt.Sprintf("seed=21,flaps=%d,flapevery=400,flapdur=150", c.flaps))
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faults.NewInjector(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		n.SetFaultInjector(inj)
	}
	r := &equivRun{v: v, n: n}
	n.SetTracer(network.WriteTracer(&r.trace, 0))
	if c.source != nil {
		r.src = c.source(t, n)
	} else if c.pattern != nil {
		r.src = traffic.NewGenerator(n, c.pattern, c.rate, 42)
	} else {
		r.src = traffic.NewGenerator(n, traffic.UniformRandom{}, c.rate, 42)
	}
	return r
}

// drive steps the run, snapshotting halfway and at the end. It reports
// through r.err, never t, so concurrent runs can drive at once.
func (r *equivRun) drive(cycles int) {
	loop, closed := r.src.(closedLoop)
	for i := 0; i < cycles && !(closed && loop.Done()); i++ {
		if i == cycles/2 {
			r.mid = r.snapshot()
		}
		r.src.Tick(r.n.Cycle())
		r.n.Step()
	}
	r.end = r.snapshot()
	if closed {
		if r.finish = loop.FinishCycle(); !loop.Done() && r.err == nil {
			r.err = fmt.Errorf("closed loop unfinished after %d cycles", cycles)
		}
	}
}

func (r *equivRun) snapshot() []byte {
	var b bytes.Buffer
	if err := r.n.WriteSnapshot(&b, r.src); err != nil && r.err == nil {
		r.err = err
	}
	return b.Bytes()
}

// equivalent runs c under every variant, the first the reference, and
// fails where a digest first departs from the reference's: a trace byte,
// a Stats field, the finish cycle or a snapshot offset. An unpooled run
// compares trace and Stats only: its header and freelist differ by design.
func (c equivCase) equivalent(t *testing.T, variants ...variant) {
	t.Helper()
	run := func(v variant) *equivRun {
		if v.procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
		}
		r := c.build(t, v)
		r.drive(c.cycles)
		return r
	}
	ref := run(variants[0])
	c.check(t, ref, ref)
	s := ref.n.Stats
	if c.upward && s.UpwardPackets == 0 {
		t.Fatal("the reference run never selected an upward packet; raise the rate so the popup path is exercised")
	}
	if c.holds && s.InjectionHolds == 0 {
		t.Fatal("the reference run never held an injection; raise the rate so packets queue behind a hold")
	}
	if c.flaps > 0 && s.LinkFlaps == 0 {
		t.Fatal("the reference run never flapped a link")
	}
	if !c.concurrent {
		for _, v := range variants[1:] {
			c.check(t, ref, run(v))
		}
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(variants[1].procs))
	runs := make([]*equivRun, len(variants)-1)
	for i, v := range variants[1:] {
		runs[i] = c.build(t, v)
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.drive(c.cycles)
		}()
	}
	wg.Wait()
	for _, r := range runs {
		c.check(t, ref, r)
	}
}

func (c equivCase) check(t *testing.T, ref, r *equivRun) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("%s: %v", r.v, r.err)
	}
	if c.vet != nil {
		c.vet(t, r)
	}
	a, b := reflect.ValueOf(ref.n.Stats), reflect.ValueOf(r.n.Stats)
	for i := range a.NumField() {
		if x, y := fmt.Sprint(a.Field(i)), fmt.Sprint(b.Field(i)); x != y {
			t.Errorf("%s: Stats.%s is %s, %s has %s", r.v, a.Type().Field(i).Name, y, ref.v, x)
			break
		}
	}
	if r.finish != ref.finish {
		t.Errorf("%s: finishes at cycle %d, %s at %d", r.v, r.finish, ref.v, ref.finish)
	}
	if i := firstDiff(ref.trace.Bytes(), r.trace.Bytes()); i >= 0 {
		lo := max(i-200, 0)
		t.Fatalf("%s: flit trace diverges from %s's at byte %d:\n%s: ...%.300s\n%s: ...%.300s",
			r.v, ref.v, i, ref.v, ref.trace.Bytes()[lo:], r.v, r.trace.Bytes()[lo:])
	}
	if r.v.unpooled || ref.v.unpooled {
		return
	}
	for _, s := range []struct {
		when     string
		ref, got []byte
	}{{"mid-run", ref.mid, r.mid}, {"final", ref.end, r.end}} {
		if i := firstDiff(s.ref, s.got); i >= 0 {
			t.Errorf("%s: the %s snapshot (%d bytes) differs from %s's (%d bytes) at offset %d",
				r.v, s.when, len(s.got), ref.v, len(s.ref), i)
		}
	}
}

// firstDiff returns the first offset where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// baselineCases are the 80-router grid. The UPP cases run past the
// saturation knee, so deadlocks form and the popup protocol (detection,
// signals, circuit drain, release) runs; remote control's holds keep
// packets queued at the NI while others are recycled around them, and
// composable steers every packet through its own route tables.
var baselineCases = []equivCase{
	{name: "none", topo: baseline, rate: 0.05, cycles: 6000},
	{name: "remote_control", topo: baseline, scheme: "remote_control", rate: 0.05, cycles: 6000, holds: true},
	{name: "composable", topo: baseline, scheme: "composable", rate: 0.05, cycles: 6000},
	{name: "upp", topo: baseline, scheme: "upp", rate: 0.12, cycles: 10000, upward: true},
	{name: "upp_oq", topo: baseline, scheme: "upp", arch: "oq", rate: 0.12, cycles: 10000, upward: true},
	{name: "upp_voq", topo: baseline, scheme: "upp", arch: "voq", rate: 0.12, cycles: 10000, upward: true},
	{name: "none_oq", topo: baseline, arch: "oq", rate: 0.05, cycles: 6000},
	{name: "none_voq", topo: baseline, arch: "voq", rate: 0.05, cycles: 6000},
}

func baseline() *topology.Topology { return topology.MustBuild(topology.BaselineConfig()) }

// TestKernelTraceEquality: the active-set and parallel kernels must be
// pure optimizations. Every scheme and router arch runs under all three
// kernels to the same flit trace, Stats and snapshot bytes, mid-run and at
// the end: a snapshot holds no trace of the kernel that wrote it.
func TestKernelTraceEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	for _, c := range baselineCases {
		t.Run(c.name, func(t *testing.T) { c.equivalent(t, active, naive, parallel) })
	}
}

// TestKernelTraceEqualityScale extends the contract to the hierarchical
// 2048-router preset, 30x the baseline, with the parallel kernel at
// several worker counts, since block ownership moves with them.
func TestKernelTraceEqualityScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	large := func() *topology.Topology { return topology.MustBuildScale(topology.ScaleLargeConfig()) }
	for _, c := range []equivCase{
		{name: "none", topo: large, rate: 0.03, cycles: 2000},
		{name: "upp", topo: large, scheme: "upp", rate: 0.06, cycles: 2500},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.equivalent(t, active, naive, variant{kernel: network.KernelParallel, shards: 1}, variant{kernel: network.KernelParallel, shards: 4})
		})
	}
}

// TestKernelTraceEqualityCollective is the closed-loop leg: the workload
// engine reads consumption events (NI Consume hooks), which the parallel
// kernel defers to its commit phase, and its injection times are
// functions of earlier deliveries. A ring allreduce under UPP must finish
// at the same cycle with the same trace under every kernel.
func TestKernelTraceEqualityCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	ring := func(t testing.TB, n *network.Network) source {
		prog, err := workload.RingAllReduce(len(n.Topo.Cores()), 5)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := workload.NewEngine(n, prog)
		if err != nil {
			t.Fatal(err)
		}
		eng.Iterations = 2
		return eng
	}
	equivCase{topo: baseline, scheme: "upp", source: ring, cycles: 4000}.equivalent(t, active, naive, parallel)
}

// TestPoolTraceEquality: packet recycling must be invisible. The pooled
// and unpooled runs of every scheme leave the same trace and Stats.
func TestPoolTraceEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	for _, c := range baselineCases[:4] {
		t.Run(c.name, func(t *testing.T) { c.equivalent(t, active, variant{kernel: network.KernelActive, unpooled: true}) })
	}
}

// TestDrainStallDetectionActiveKernel: a genuinely wedged network must
// still trip Drain's stallLimit under the active-set kernel, where almost
// every component has been idle-retired — deadlocked routers hold buffered
// flits forever, so they stay in the active set and the no-ejection
// watchdog fires exactly as it does under the naive walk.
func TestDrainStallDetectionActiveKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	wedge := func(kernel string, seed uint64) error {
		topo := topology.MustBuild(topology.BaselineConfig())
		cfg := network.DefaultConfig()
		cfg.Kernel = kernel
		n := network.MustNew(topo, cfg, network.None{})
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.12, seed)
		g.Run(20000)
		g.SetRate(0)
		return n.Drain(30000, 3000)
	}
	for seed := uint64(40); seed < 48; seed++ {
		err := wedge(network.KernelActive, seed)
		if err == nil {
			continue // no deadlock with this seed
		}
		if !strings.Contains(err.Error(), "no ejection") {
			t.Fatalf("seed %d: unexpected drain failure: %v", seed, err)
		}
		// The naive kernel must report the identical wedge.
		nerr := wedge(network.KernelNaive, seed)
		if nerr == nil || nerr.Error() != err.Error() {
			t.Fatalf("seed %d: kernels disagree on the wedge:\nactive: %v\nnaive:  %v", seed, err, nerr)
		}
		return
	}
	t.Fatal("no deadlock formed across seeds; raise the load")
}
