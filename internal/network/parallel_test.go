package network_test

import (
	"slices"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
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

func smallTopo() *topology.Topology { return topology.MustBuildScale(topology.ScaleSmallConfig()) }

// parallelCases are the determinism grid.
var parallelCases = []equivCase{
	// UPP past the saturation knee: detection, signals, circuit drain and
	// CallPopupEjected completions (slots whose SchemeCalls run after a
	// concurrent deliver phase).
	{name: "upp", topo: baseline, scheme: "upp", rate: 0.12, cycles: 4000, upward: true},
	// Remote control's StartOfCycle reads router occupancy between the
	// deliver and step phases, and the deliver phase's workers charge its
	// boundary-crossing delay.
	{name: "remote_control", topo: baseline, scheme: "remote_control", rate: 0.05, cycles: 2500},
	// Eight blocks, most of them empty, some cycles under parallelMinAwake.
	{name: "small_corner", topo: smallTopo, scheme: "upp", pattern: cornerTraffic{}, rate: 0.3, cycles: 1500},
	// Link flaps toggle the routers' down-port masks between phases.
	{name: "faulted", topo: baseline, scheme: "upp", rate: 0.10, cycles: 3000, flaps: 6, upward: true},
}

// engaged vets a parallel run's hand-off: the worker count clamps to the
// block count and the step phase engaged, except at one worker, where it
// never does; with inline set, some cycle fell under the engagement
// threshold. On one P every share runs on the coordinator; on four,
// distinct pool workers really execute phases (which ones the coordinator
// took back is up to the scheduler).
func engaged(inline bool) func(*testing.T, *equivRun) {
	return func(t *testing.T, r *equivRun) {
		n, v := r.n, r.v
		if v.kernel != network.KernelParallel {
			return
		}
		if want := min(v.shards, (n.Topo.NumNodes()+63)/64); n.Shards() != want {
			t.Fatalf("%s: got %d workers, want %d", v, n.Shards(), want)
		}
		compute, inlined := n.ParallelPhases()
		if n.Shards() == 1 && compute != 0 {
			t.Errorf("%s: step phase engaged %d times at one worker", v, compute)
		}
		if n.Shards() > 1 && compute == 0 {
			t.Errorf("%s: step phase never engaged (all cycles fell back inline)", v)
		}
		if inline && inlined == 0 {
			t.Errorf("%s: no cycle fell under the engagement threshold", v)
		}
		helpers := 0
		for _, ph := range n.WorkerPhases()[1:] {
			if ph > 0 {
				helpers++
			}
		}
		if v.procs == 1 && helpers != 0 || v.procs > 1 && helpers < min(2, n.Shards()-1) {
			t.Errorf("%s: %d pool workers executed a phase (phases per worker %v)", v, helpers, n.WorkerPhases())
		}
	}
}

// TestParallelShardDeterminism: the parallel kernel's output must not
// depend on the worker count or on GOMAXPROCS — only the commit order
// (ascending NodeID) determines the result. Worker counts that do not
// divide the block count (3, 7) and ones above it (clamped) are in the
// grid. Every run's snapshots, mid-run and final, are the active kernel's
// bytes: the writer puts each wheel slot in canonical order, its
// SchemeCalls last (in the UPP case). Deliberately not skipped
// in -short mode: this is the core safety net for the concurrent phases
// and CI runs it under -race.
func TestParallelShardDeterminism(t *testing.T) {
	for _, c := range parallelCases {
		t.Run(c.name, func(t *testing.T) {
			blocks := (c.topo().NumNodes() + 63) / 64
			variants := []variant{active}
			for _, procs := range []int{1, 4} {
				for _, shards := range []int{1, 2, 3, 4, 7} {
					if shards <= blocks+1 { // above, it clamps to the block count like blocks+1 does
						variants = append(variants, variant{kernel: network.KernelParallel, shards: shards, procs: procs})
					}
				}
			}
			c.vet = engaged(c.name == "small_corner")
			c.equivalent(t, variants...)
		})
	}
}

// slotView is a scheme that, from every StartOfCycle, schedules a call
// two cycles on, and records how many flits one router holds as each of
// the two hooks sees it, by cycle.
type slotView struct {
	network.BaseScheme
	n           *network.Network
	watch       topology.NodeID
	start, call []int
}

func (*slotView) Name() string                { return "slot_view" }
func (s *slotView) Attach(n *network.Network) { s.n = n }

func (s *slotView) StartOfCycle(c sim.Cycle) {
	s.start[c] = s.n.Routers[s.watch].Buffered()
	s.n.ScheduleCall(c+2, network.SchemeCall{})
}

func (s *slotView) OnScheduledCall(_ network.SchemeCall, c sim.Cycle) {
	s.call[c] = s.n.Routers[s.watch].Buffered()
}

// TestSchemeCallSeesSlotFlits pins the delivery rule (DESIGN.md §9): a
// wheel slot's scheme calls run after all of its flits and credits, so a
// call sees a router as the same cycle's StartOfCycle does — under every
// kernel and worker count, at a load that engages the concurrent deliver
// phase. The watched router is core 0's boundary router, which every
// packet leaving core 0's chiplet crosses.
func TestSchemeCallSeesSlotFlits(t *testing.T) {
	const cycles = 1500
	for _, v := range []variant{naive, active, {kernel: network.KernelParallel, shards: 1}, {kernel: network.KernelParallel, shards: 2}} {
		s := &slotView{start: make([]int, cycles), call: make([]int, cycles)}
		cfg := network.DefaultConfig()
		cfg.Kernel, cfg.Shards = v.kernel, v.shards
		n, err := network.New(baseline(), cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		s.watch = n.Topo.Nodes[0].BoundBoundary
		g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.08, 42)
		due := 0
		for range cycles {
			due = max(due, n.DueEvents())
			g.Tick(n.Cycle())
			n.Step()
		}
		if due < network.ParallelMinEvents {
			t.Fatalf("%s: at most %d flits and credits due in a cycle, under the deliver phase's threshold %d", v, due, network.ParallelMinEvents)
		}
		arrivals := 0
		for c := 2; c < cycles; c++ {
			if s.call[c] != s.start[c] {
				t.Fatalf("%s: cycle %d: the scheme call saw %d flits at router %d, StartOfCycle %d", v, c, s.call[c], s.watch, s.start[c])
			}
			if s.start[c] > s.start[c-1] {
				arrivals++
			}
		}
		if arrivals == 0 {
			t.Fatalf("%s: no flit arrived at router %d", v, s.watch)
		}
	}
}

// TestParallelOversubscribed: four 4-worker networks stepping at once on
// two Ps contend for the three pool helpers. Whoever finds a helper busy
// runs the share itself, spinning waiters park, and every network still
// finishes with the active kernel's exact result.
func TestParallelOversubscribed(t *testing.T) {
	c := equivCase{topo: smallTopo, scheme: "upp", rate: 0.02, cycles: 600, concurrent: true,
		vet: func(t *testing.T, r *equivRun) {
			if compute, _ := r.n.ParallelPhases(); r.v.kernel == network.KernelParallel && compute == 0 {
				t.Errorf("%s: step phase never engaged", r.v)
			}
		}}
	p4 := variant{kernel: network.KernelParallel, shards: 4, procs: 2}
	c.equivalent(t, active, p4, p4, p4, p4)
}

// hubSource is uniform random traffic plus, every 25 cycles, a request to
// the middle core, whose Consume hook answers from both its neighbours:
// the hook enqueues at other NIs in the middle of the NI walk.
type hubSource struct {
	*traffic.Generator
	n       *network.Network
	replies int
}

func newHubSource(_ testing.TB, n *network.Network) source {
	h := &hubSource{Generator: traffic.NewGenerator(n, traffic.UniformRandom{}, 0.03, 42), n: n}
	cores := n.Topo.Cores()
	hub := len(cores) / 2
	n.NI(cores[hub]).Consume = func(p *message.Packet, cycle sim.Cycle) bool {
		if p.Class != message.ClassGetS {
			return true
		}
		for _, from := range []topology.NodeID{cores[hub+1], cores[hub-1]} {
			r := n.AllocPacket()
			r.Src, r.Dst = from, p.Src
			r.VNet, r.Class, r.Size = message.VNetResponse, message.ClassData, message.DataPacketFlits
			n.NI(from).Enqueue(r, cycle)
			h.replies++
		}
		return true
	}
	return h
}

func (h *hubSource) Tick(cycle sim.Cycle) {
	if cycle%25 == 0 {
		cores := h.n.Topo.Cores()
		hub := len(cores) / 2
		p := h.n.AllocPacket()
		p.Src, p.Dst = cores[(int(cycle)*7)%hub], cores[hub]
		p.VNet, p.Class, p.Size = message.VNetRequest, message.ClassGetS, message.ControlPacketFlits
		h.n.NI(p.Src).Enqueue(p, cycle)
	}
	h.Generator.Tick(cycle)
}

// TestNIWakeMidWalk: an NI's Consume hook that enqueues at another NI
// wakes it in the middle of the NI walk. The naive walk reaches a higher
// ID later in the same cycle and a lower ID in the next one; the awake
// bitmap's walk must do the same, so the flit trace — where one cycle's
// difference in an injection shows — is identical under every kernel.
func TestNIWakeMidWalk(t *testing.T) {
	c := equivCase{topo: smallTopo, source: newHubSource, cycles: 1200,
		vet: func(t *testing.T, r *equivRun) {
			if got := r.src.(*hubSource).replies; got < 40 {
				t.Fatalf("%s: the hub's hook replied %d times; the mid-walk wake path is barely exercised", r.v, got)
			}
		}}
	c.equivalent(t, naive, active, variant{kernel: network.KernelParallel, shards: 1}, variant{kernel: network.KernelParallel, shards: 3})
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

// TestForEachBlockCoversAwake: ForEachBlock hands every router of
// AwakeRouterIDs to exactly one call, in ascending order within and across
// its blocks, under every kernel and worker count — the contract UPP's
// detection scan relies on.
func TestForEachBlockCoversAwake(t *testing.T) {
	for _, l := range []struct {
		kernel string
		shards int
	}{{network.KernelNaive, 0}, {network.KernelActive, 0}, {network.KernelParallel, 1}, {network.KernelParallel, 3}} {
		r := parallelCases[2].build(t, variant{kernel: l.kernel, shards: l.shards})
		n := r.n
		for cycle := 0; cycle < 300; cycle++ {
			r.src.Tick(n.Cycle())
			n.Step()
			got := make([][]int32, n.NumBlocks())
			n.ForEachBlock(func(b int, awake []int32) { got[b] = append(got[b], awake...) })
			var flat []int32
			for b, ids := range got {
				for _, id := range ids {
					if n.NumBlocks() > 1 && int(id)>>6 != b {
						t.Fatalf("%s/%d cycle %d: block %d handed router %d", l.kernel, l.shards, cycle, b, id)
					}
				}
				flat = append(flat, ids...)
			}
			if want := n.AwakeRouterIDs(); !slices.Equal(flat, want) {
				t.Fatalf("%s/%d cycle %d: blocks hand out %v, AwakeRouterIDs is %v", l.kernel, l.shards, cycle, flat, want)
			}
		}
	}
}

// TestBlockOwnership holds the parallel kernel's block map on the systems
// the benchmarks run: every block has one owner, the workers' block counts
// differ by at most one, each worker's list is ascending and is exactly
// the blocks it owns, and on the 8192-router preset a band deal keeps
// nearly every link inside one worker (round-robin split 29.8 % of the
// directed router-to-router links at 2 workers and 31.5 % at 4).
func TestBlockOwnership(t *testing.T) {
	huge := topology.ScaleHugeConfig()
	maxCross := map[int]float64{2: 0.02, 4: 0.05}
	for _, sys := range []struct {
		name string
		topo func() *topology.Topology
	}{
		{"baseline", baseline},
		{"small", smallTopo},
		{"large", func() *topology.Topology { return topology.MustBuildScale(topology.ScaleLargeConfig()) }},
		{"huge", func() *topology.Topology { return topology.MustBuildScale(huge) }},
	} {
		topo := sys.topo()
		nb := (topo.NumNodes() + 1<<network.BlockShift - 1) >> network.BlockShift
		for _, asked := range []int{1, 2, 3, 4, 7} {
			workers := min(asked, nb)
			owner, mine := network.DealBlocks(topo, workers)
			if len(owner) != nb || len(mine) != workers {
				t.Fatalf("%s/%d: %d owners, %d lists; want %d and %d", sys.name, workers, len(owner), len(mine), nb, workers)
			}
			seen := make([]int, nb)
			for w, blocks := range mine {
				if !slices.IsSorted(blocks) {
					t.Errorf("%s/%d: worker %d's blocks %v are not ascending", sys.name, workers, w, blocks)
				}
				if d := len(blocks) - nb/workers; d < 0 || d > 1 {
					t.Errorf("%s/%d: worker %d owns %d of %d blocks", sys.name, workers, w, len(blocks), nb)
				}
				for _, b := range blocks {
					seen[b]++
					if owner[b] != int32(w) {
						t.Errorf("%s/%d: block %d is on worker %d's list but owned by %d", sys.name, workers, b, w, owner[b])
					}
				}
			}
			for b, k := range seen {
				if k != 1 {
					t.Errorf("%s/%d: block %d is on %d lists", sys.name, workers, b, k)
				}
			}
			limit, ok := maxCross[workers]
			if sys.name != "huge" || !ok {
				continue
			}
			var cross int
			for _, l := range topo.Links {
				if owner[l.A>>network.BlockShift] != owner[l.B>>network.BlockShift] {
					cross += 2
				}
			}
			if share := float64(cross) / float64(2*len(topo.Links)); share >= limit {
				t.Errorf("huge/%d: %d of %d directed links (%.1f %%) join two workers; want under %.0f %%",
					workers, cross, 2*len(topo.Links), 100*share, 100*limit)
			} else {
				t.Logf("huge/%d: %d of %d directed links (%.2f %%) join two workers", workers, cross, 2*len(topo.Links), 100*share)
			}
		}
	}
}
