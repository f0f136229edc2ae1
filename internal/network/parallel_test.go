package network_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// cornerTraffic keeps a 512-router system mostly asleep: only the first
// 24 cores inject, all toward the last 8, so most 64-router blocks hold no
// awake router and the awake count hovers around the engagement threshold.
type cornerTraffic struct{}

func (cornerTraffic) Name() string { return "corner" }

func (cornerTraffic) Dest(src, n int, rng *sim.RNG) int {
	if src >= 24 {
		return src // self-traffic: the generator skips it
	}
	return n - 1 - rng.Intn(8)
}

// parallelCase is one workload of the determinism grid.
type parallelCase struct {
	name    string
	topo    func() *topology.Topology
	scheme  func() network.Scheme
	pattern traffic.Pattern
	rate    float64
	cycles  int
	flaps   int
	popups  bool // the run must exercise the popup path
}

func baselineTopo() *topology.Topology { return topology.MustBuild(topology.BaselineConfig()) }
func smallTopo() *topology.Topology    { return topology.MustBuildScale(topology.ScaleSmallConfig()) }
func uppScheme() network.Scheme        { return core.New(core.DefaultConfig()) }

var parallelCases = []parallelCase{
	// UPP past the saturation knee: detection, signals, circuit drain and
	// CallPopupEjected completions (slots with SchemeCalls fall back to
	// serial delivery in the middle of parallel ones).
	{name: "upp", topo: baselineTopo, scheme: uppScheme, pattern: traffic.UniformRandom{}, rate: 0.12, cycles: 4000, popups: true},
	// Remote control's StartOfCycle reads router occupancy between the
	// deliver and step phases, and the deliver phase's workers charge its
	// boundary-crossing delay.
	{name: "remote_control", topo: baselineTopo, scheme: func() network.Scheme { return remotectl.New() },
		pattern: traffic.UniformRandom{}, rate: 0.05, cycles: 2500},
	// Eight blocks, most of them empty, some cycles under parallelMinAwake.
	{name: "small_corner", topo: smallTopo, scheme: uppScheme, pattern: cornerTraffic{}, rate: 0.3, cycles: 1500},
	// Link flaps toggle the routers' down-port masks between phases.
	{name: "faulted", topo: baselineTopo, scheme: uppScheme, pattern: traffic.UniformRandom{}, rate: 0.10, cycles: 3000, flaps: 6, popups: true},
}

// build sets the case up under the given kernel and worker count: the
// network, its traffic source and the buffer its flit trace goes to.
func (c parallelCase) build(t testing.TB, kernel string, shards int) (*network.Network, *traffic.Generator, *bytes.Buffer) {
	t.Helper()
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	cfg.Shards = shards
	n, err := network.New(c.topo(), cfg, c.scheme())
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
	buf := new(bytes.Buffer)
	n.SetTracer(network.WriteTracer(buf, 0))
	return n, traffic.NewGenerator(n, c.pattern, c.rate, 42), buf
}

// run builds the case, drives it and returns the flit trace, the stats and
// the network (for engagement telemetry).
func (c parallelCase) run(t testing.TB, kernel string, shards int) (string, network.Stats, *network.Network) {
	t.Helper()
	n, g, buf := c.build(t, kernel, shards)
	g.Run(c.cycles)
	return buf.String(), n.Stats, n
}

// diffTraces fails the test at the first byte where two traces part.
func diffTraces(t testing.TB, label, ref, got string) {
	t.Helper()
	if ref == got {
		return
	}
	i := 0
	for i < len(ref) && i < len(got) && ref[i] == got[i] {
		i++
	}
	lo := max(i-200, 0)
	t.Fatalf("%s: flit traces diverge at byte %d:\nactive:   ...%.300s\nparallel: ...%.300s", label, i, ref[lo:], got[lo:])
}

// TestParallelShardDeterminism: the parallel kernel's output must not
// depend on the worker count or on GOMAXPROCS — only the commit order
// (ascending NodeID) determines the result. Worker counts that do not
// divide the block count (3, 7) and ones above it (clamped) are in the
// grid. Deliberately not skipped in -short mode: this is the core safety
// net for the concurrent phases and CI runs it under -race.
func TestParallelShardDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range parallelCases {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(prev)
			refTrace, refStats, ref := c.run(t, network.KernelActive, 0)
			if c.popups && refStats.UpwardPackets == 0 {
				t.Fatal("reference run never detected an upward packet; raise the rate so the popup path is exercised")
			}
			if c.flaps > 0 && refStats.LinkFlaps == 0 {
				t.Fatal("reference run never flapped a link")
			}
			blocks := (ref.Topo.NumNodes() + 63) / 64
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, shards := range []int{1, 2, 3, 4, 7} {
					if shards > blocks+1 {
						continue // clamps to the block count like blocks+1 did
					}
					trace, stats, n := c.run(t, network.KernelParallel, shards)
					if want := min(shards, blocks); n.Shards() != want {
						t.Fatalf("procs=%d shards=%d: got %d workers, want %d", procs, shards, n.Shards(), want)
					}
					compute, inline := n.ParallelPhases()
					if compute == 0 {
						t.Errorf("procs=%d shards=%d: step phase never engaged (all cycles fell back inline)", procs, shards)
					}
					if c.name == "small_corner" && inline == 0 {
						t.Errorf("procs=%d shards=%d: no cycle fell under the engagement threshold", procs, shards)
					}
					// On one P every share runs on the coordinator; on four,
					// distinct pool workers really execute phases (which ones
					// the coordinator took back is up to the scheduler).
					helpers := 0
					for _, ph := range n.WorkerPhases()[1:] {
						if ph > 0 {
							helpers++
						}
					}
					if procs == 1 && helpers != 0 || procs > 1 && helpers < min(2, n.Shards()-1) {
						t.Errorf("procs=%d shards=%d: %d pool workers executed a phase (phases per worker %v)",
							procs, shards, helpers, n.WorkerPhases())
					}
					if stats != refStats {
						t.Errorf("procs=%d shards=%d: stats diverge from active kernel:\nactive:   %+v\nparallel: %+v",
							procs, shards, refStats, stats)
					}
					diffTraces(t, c.name, refTrace, trace)
				}
			}
		})
	}
}

// TestParallelOversubscribed: four 4-worker networks stepping at once on
// two Ps contend for the three pool helpers. Whoever finds a helper busy
// runs the share itself, spinning waiters park, and every network still
// finishes with the active kernel's exact result.
func TestParallelOversubscribed(t *testing.T) {
	c := parallelCase{topo: smallTopo, scheme: uppScheme, pattern: traffic.UniformRandom{}, rate: 0.02, cycles: 600}
	refTrace, refStats, _ := c.run(t, network.KernelActive, 0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var (
		wg     sync.WaitGroup
		nets   [4]*network.Network
		traces [4]*bytes.Buffer
	)
	for i := range nets {
		n, g, buf := c.build(t, network.KernelParallel, 4)
		nets[i], traces[i] = n, buf
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Run(c.cycles)
		}()
	}
	wg.Wait()
	for i, n := range nets {
		if compute, _ := n.ParallelPhases(); compute == 0 {
			t.Errorf("network %d: step phase never engaged", i)
		}
		if n.Stats != refStats {
			t.Errorf("network %d: stats diverge from active kernel:\nactive:   %+v\nparallel: %+v", i, refStats, n.Stats)
		}
		diffTraces(t, "oversubscribed", refTrace, traces[i].String())
	}
}

// TestNIWakeMidWalk: an NI's Consume hook that enqueues at another NI
// wakes it in the middle of the NI walk. The naive walk reaches a higher
// ID later in the same cycle and a lower ID in the next one; the awake
// bitmap's walk must do the same, so the flit trace — where one cycle's
// difference in an injection shows — is identical under every kernel.
func TestNIWakeMidWalk(t *testing.T) {
	run := func(kernel string, shards int) (string, network.Stats) {
		c := parallelCase{topo: smallTopo, scheme: func() network.Scheme { return network.None{} },
			pattern: traffic.UniformRandom{}, rate: 0.03}
		n, g, buf := c.build(t, kernel, shards)
		cores := n.Topo.Cores()
		hub := len(cores) / 2
		replies := 0
		n.NI(cores[hub]).Consume = func(p *message.Packet, cycle sim.Cycle) bool {
			if p.Class != message.ClassGetS {
				return true
			}
			for _, from := range []topology.NodeID{cores[hub+1], cores[hub-1]} {
				r := n.AllocPacket()
				r.Src, r.Dst = from, p.Src
				r.VNet, r.Class, r.Size = message.VNetResponse, message.ClassData, message.DataPacketFlits
				n.NI(from).Enqueue(r, cycle)
				replies++
			}
			return true
		}
		for cycle := 0; cycle < 1200; cycle++ {
			if cycle%25 == 0 {
				p := n.AllocPacket()
				p.Src, p.Dst = cores[(cycle*7)%hub], cores[hub]
				p.VNet, p.Class, p.Size = message.VNetRequest, message.ClassGetS, message.ControlPacketFlits
				n.NI(p.Src).Enqueue(p, n.Cycle())
			}
			g.Tick(n.Cycle())
			n.Step()
		}
		if replies < 40 {
			t.Fatalf("%s: the hub's hook replied %d times; the mid-walk wake path is barely exercised", kernel, replies)
		}
		return buf.String(), n.Stats
	}
	refTrace, refStats := run(network.KernelNaive, 0)
	for _, l := range []struct {
		kernel string
		shards int
	}{{network.KernelActive, 0}, {network.KernelParallel, 1}, {network.KernelParallel, 3}} {
		trace, stats := run(l.kernel, l.shards)
		if stats != refStats {
			t.Errorf("%s/%d: stats diverge from the naive kernel:\nnaive: %+v\ngot:   %+v", l.kernel, l.shards, refStats, stats)
		}
		diffTraces(t, fmt.Sprintf("%s/%d", l.kernel, l.shards), refTrace, trace)
	}
}

// TestWheelBuffersRotate: the event wheel keeps a buffer per slot that
// holds events — link latency plus pipeline depth of them — and a few
// drained ones on the free stack, not one per slot of the 128.
func TestWheelBuffersRotate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	n := network.MustNew(topology.MustBuildScale(topology.ScaleLargeConfig()), network.DefaultConfig(), network.None{})
	traffic.NewGenerator(n, traffic.UniformRandom{}, 0.01, 7).Run(2000)
	t.Logf("%d event buffers", n.WheelBuffers())
	if got := n.WheelBuffers(); got > 12 || got == 0 {
		t.Fatalf("wheel and free stack own %d event buffers after 2000 steady cycles; want 1..12", got)
	}
}
