package network_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"uppnoc/internal/composable"
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

// kernelRun drives one fixed workload under the given kernel and router
// arch ("" = default iq) and returns the full flit-level trace plus the
// final statistics.
func kernelRun(t *testing.T, kernel, arch, scheme string, rate float64, cycles int, seed uint64) (string, network.Stats) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	var (
		sch network.Scheme
		err error
	)
	switch scheme {
	case "upp":
		sch = core.New(core.DefaultConfig())
	case "remote_control":
		sch = remotectl.New()
	case "composable":
		sch, err = composable.BuildTables(topo)
	case "none":
		sch = network.None{}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	cfg.RouterArch = arch
	n, err := network.New(topo, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n.SetTracer(network.WriteTracer(&buf, 0))
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, rate, seed)
	g.Run(cycles)
	return buf.String(), n.Stats
}

// TestKernelTraceEquality: the active-set and parallel kernels must be
// pure optimizations — the flit-level event trace and every statistic
// must be bit-identical to the naive exhaustive walk, for every scheme.
// The UPP run uses an overload rate so deadlocks form and the full popup
// protocol (detection, signals, circuit drain) executes under all
// kernels.
func TestKernelTraceEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cases := []struct {
		scheme string
		arch   string
		rate   float64
		cycles int
	}{
		{"none", "", 0.05, 6000},
		{"composable", "", 0.05, 6000},
		{"remote_control", "", 0.05, 6000},
		{"upp", "", 0.12, 10000}, // past the knee: popups fire
		// The oq and voq router variants must honor the same shard
		// concurrency contract; the UPP overload case exercises their
		// Step, drain and popup interplay under all kernels.
		{"upp", "oq", 0.12, 10000},
		{"upp", "voq", 0.12, 10000},
		{"none", "oq", 0.05, 6000},
		{"none", "voq", 0.05, 6000},
	}
	for _, tc := range cases {
		name := tc.scheme
		if tc.arch != "" {
			name += "_" + tc.arch
		}
		t.Run(name, func(t *testing.T) {
			activeTrace, activeStats := kernelRun(t, network.KernelActive, tc.arch, tc.scheme, tc.rate, tc.cycles, 42)
			if tc.scheme == "upp" && activeStats.UpwardPackets == 0 {
				t.Error("UPP case never detected an upward packet; raise the rate so the popup path is exercised")
			}
			for _, kernel := range []string{network.KernelNaive, network.KernelParallel} {
				trace, stats := kernelRun(t, kernel, tc.arch, tc.scheme, tc.rate, tc.cycles, 42)
				if activeStats != stats {
					t.Errorf("stats diverge:\nactive:   %+v\n%-8s: %+v", activeStats, kernel, stats)
				}
				if activeTrace != trace {
					i := 0
					for i < len(activeTrace) && i < len(trace) && activeTrace[i] == trace[i] {
						i++
					}
					lo := i - 200
					if lo < 0 {
						lo = 0
					}
					t.Fatalf("flit traces diverge at byte %d:\nactive:   ...%.300s\n%-8s: ...%.300s",
						i, activeTrace[lo:], kernel, trace[lo:])
				}
			}
		})
	}
}

// kernelScaleRun is kernelRun on a scale-out system (topology.BuildScale)
// with an explicit parallel-kernel shard count.
func kernelScaleRun(t *testing.T, kernel string, shards int, scheme string, rate float64, cycles int, seed uint64) (string, network.Stats) {
	t.Helper()
	topo, err := topology.BuildScale(topology.ScaleLargeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sch network.Scheme
	switch scheme {
	case "upp":
		sch = core.New(core.DefaultConfig())
	case "none":
		sch = network.None{}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	cfg.Shards = shards
	n, err := network.New(topo, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n.SetTracer(network.WriteTracer(&buf, 0))
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, rate, seed)
	g.Run(cycles)
	return buf.String(), n.Stats
}

// TestKernelTraceEqualityScale extends the bit-identity contract to a
// scale-out system (the hierarchical 2x2-tile, 2048-router preset): the
// active-set and parallel kernels — the latter at several shard counts,
// since shard boundaries move with the node count — must reproduce the
// naive walk's flit trace exactly on a topology 30x the paper baseline.
func TestKernelTraceEqualityScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cases := []struct {
		scheme string
		rate   float64
		cycles int
	}{
		{"none", 0.03, 2000},
		{"upp", 0.06, 2500},
	}
	for _, tc := range cases {
		t.Run(tc.scheme, func(t *testing.T) {
			activeTrace, activeStats := kernelScaleRun(t, network.KernelActive, 0, tc.scheme, tc.rate, tc.cycles, 42)
			type leg struct {
				kernel string
				shards int
			}
			for _, l := range []leg{{network.KernelNaive, 0}, {network.KernelParallel, 1}, {network.KernelParallel, 4}} {
				trace, stats := kernelScaleRun(t, l.kernel, l.shards, tc.scheme, tc.rate, tc.cycles, 42)
				name := l.kernel
				if l.shards > 0 {
					name = fmt.Sprintf("%s/shards=%d", l.kernel, l.shards)
				}
				if activeStats != stats {
					t.Errorf("stats diverge:\nactive: %+v\n%s: %+v", activeStats, name, stats)
				}
				if activeTrace != trace {
					i := 0
					for i < len(activeTrace) && i < len(trace) && activeTrace[i] == trace[i] {
						i++
					}
					lo := i - 200
					if lo < 0 {
						lo = 0
					}
					t.Fatalf("flit traces diverge at byte %d:\nactive: ...%.300s\n%s: ...%.300s",
						i, activeTrace[lo:], name, trace[lo:])
				}
			}
		})
	}
}

// kernelCollectiveRun drives one closed-loop ring allreduce under UPP to
// completion and returns the full flit-level trace plus stats and the
// completion cycle.
func kernelCollectiveRun(t *testing.T, kernel string) (string, network.Stats, sim.Cycle) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	n := network.MustNew(topo, cfg, core.New(core.DefaultConfig()))
	var buf bytes.Buffer
	n.SetTracer(network.WriteTracer(&buf, 0))
	prog, err := workload.RingAllReduce(len(topo.Cores()), 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		t.Fatal(err)
	}
	eng.Iterations = 2
	if err := eng.Run(200000); err != nil {
		t.Fatalf("kernel %s: %v", kernel, err)
	}
	return buf.String(), n.Stats, eng.FinishCycle()
}

// TestKernelTraceEqualityCollective is the collective-workload leg of
// the kernel bit-identity contract: the closed-loop engine reads
// consumption events (NI Consume hooks), which the parallel kernel
// defers to its commit phase — this test proves that deferral is
// invisible at flit granularity, under dependency-gated traffic whose
// injection times are themselves functions of earlier deliveries.
func TestKernelTraceEqualityCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	activeTrace, activeStats, activeFinish := kernelCollectiveRun(t, network.KernelActive)
	for _, kernel := range []string{network.KernelNaive, network.KernelParallel} {
		trace, stats, finish := kernelCollectiveRun(t, kernel)
		if finish != activeFinish {
			t.Errorf("completion cycle diverges: active %d, %s %d", activeFinish, kernel, finish)
		}
		if activeStats != stats {
			t.Errorf("stats diverge:\nactive:   %+v\n%-8s: %+v", activeStats, kernel, stats)
		}
		if activeTrace != trace {
			i := 0
			for i < len(activeTrace) && i < len(trace) && activeTrace[i] == trace[i] {
				i++
			}
			lo := i - 200
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("flit traces diverge at byte %d:\nactive:   ...%.300s\n%-8s: ...%.300s",
				i, activeTrace[lo:], kernel, trace[lo:])
		}
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
