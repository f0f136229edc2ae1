package experiments

import (
	"fmt"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestSteadyStateZeroAlloc pins the steady-state simulation loop at
// exactly zero heap allocations. The recipe matters: the pool is
// preallocated past the live high-water mark and the warmup is long
// enough that every lazily-grown buffer (injection rings, waiter and
// completion slices, wheel slots, router scratch) has reached its
// steady-state capacity. After that, a measurement window must not
// allocate at all — any regression (a map rebuilt per cycle, a slice
// regrown from zero, a closure capture in the hot path) fails this test
// with a nonzero count.
// The parallel kernel is held to the same bar: its outboxes, ejection
// logs, per-block lists and the wheel's slot buffers are reused, so once warmup has established
// their high-water marks the cycle must not allocate either (the hand-off
// to the pool workers is an atomic word and a one-token channel).
func TestSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	// Every router microarchitecture is held to the bar, not just the
	// default iq pipeline: oq's staging FIFOs and voq's per-output
	// nomination use preallocated storage only. The oq leg runs at a
	// lower offered load because its saturation throughput is below
	// 0.05 (one drain per output per cycle from half-depth input
	// buffers) — past saturation the injection queues grow without
	// bound and "steady state" does not exist.
	rates := map[string]float64{router.ArchIQ: 0.05, router.ArchOQ: 0.035, router.ArchVOQ: 0.05}
	leg := func(scheme SchemeName, kernel, arch string, rate float64) func(*testing.T) {
		return func(t *testing.T) {
			spec := RunSpec{Topo: topology.BaselineConfig(), Scheme: scheme, Kernel: kernel, RouterArch: arch}
			s, err := Assemble(spec)
			if err != nil {
				t.Fatal(err)
			}
			n, g := s.Net, s.Generator(traffic.UniformRandom{}, rate, 99)
			n.PacketPool().Preallocate(4096)
			Drive(n, g, 20000, nil) // reach steady-state occupancy and buffer high-water marks
			allocs := testing.AllocsPerRun(10, func() {
				Drive(n, g, n.Cycle()+500, nil)
			})
			if allocs != 0 {
				t.Fatalf("steady-state window allocated %.2f objects per 500 cycles; want exactly 0", allocs)
			}
			st := n.PacketPool().Stats
			if st.Reuses == 0 {
				t.Fatal("pool never recycled a packet — the zero-alloc result is vacuous")
			}
		}
	}
	for _, kernel := range []string{network.KernelActive, network.KernelParallel} {
		for _, arch := range []string{router.ArchIQ, router.ArchOQ, router.ArchVOQ} {
			t.Run(kernel+"_"+arch, leg(SchemeUPP, kernel, arch, rates[arch]))
		}
	}
	// Composable's restricted routes are data installed at Attach, and
	// remote control's control plane runs on fixed slots and reused queues:
	// both steady states are held to the same bar, remote control's at two
	// loads so that its request queues and grants are exercised.
	t.Run("composable_"+network.KernelActive+"_"+router.ArchIQ, leg(SchemeComposable, network.KernelActive, router.ArchIQ, rates[router.ArchIQ]))
	for _, rate := range []float64{0.03, 0.05} {
		t.Run(fmt.Sprintf("remote_control_%s_%s_%v", network.KernelActive, router.ArchIQ, rate),
			leg(SchemeRemoteControl, network.KernelActive, router.ArchIQ, rate))
	}
}

// TestSteadyStateZeroAllocScale holds the scale-out systems to the same
// zero-allocation bar: on the hierarchical 2048-router preset, the awake
// lists, the NI wake heap and the parallel kernel's outboxes and logs must
// all run out of preallocated storage once warmup has established
// high-water marks. The pool preallocation is larger than the baseline
// test's because the live packet population scales with cores x latency.
// The offered rate sits below the scale systems' uniform-random
// saturation (~0.015 accepted flits/cycle/node on the 2048-router preset —
// the interposer bisection, not the paper baseline's knee, is the limit):
// past it the injection queues grow without bound and "steady state" does
// not exist.
func TestSteadyStateZeroAllocScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	for _, kernel := range []string{network.KernelActive, network.KernelParallel} {
		t.Run(kernel, func(t *testing.T) {
			sc := topology.ScaleLargeConfig()
			s, err := Assemble(RunSpec{Scale: &sc, Scheme: SchemeUPP, Kernel: kernel, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			n, g := s.Net, s.Generator(traffic.UniformRandom{}, 0.01, 99)
			n.PacketPool().Preallocate(32768)
			Drive(n, g, 10000, nil) // reach steady-state occupancy and buffer high-water marks
			allocs := testing.AllocsPerRun(5, func() {
				Drive(n, g, n.Cycle()+200, nil)
			})
			if allocs != 0 {
				t.Fatalf("scale steady-state window allocated %.2f objects per 200 cycles; want exactly 0", allocs)
			}
			st := n.PacketPool().Stats
			if st.Reuses == 0 {
				t.Fatal("pool never recycled a packet — the zero-alloc result is vacuous")
			}
		})
	}
}

// TestSteadyStateZeroAllocCollective holds the closed-loop workload
// engine to the same zero-allocation bar as the rate-driven loop: a
// looping training-step collective (dependency gating, compute gaps,
// iteration rollover, barrier) must not allocate per cycle once the
// engine's one-time buffers (the iteration-cycle log) and the network's
// lazily-grown structures have reached steady state.
func TestSteadyStateZeroAllocCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	for _, kernel := range []string{network.KernelActive, network.KernelParallel} {
		t.Run(kernel, func(t *testing.T) {
			spec := RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP, Kernel: kernel}
			s, err := Assemble(spec)
			if err != nil {
				t.Fatal(err)
			}
			n := s.Net
			eng, _, err := workloadEngine(n, "training_step:flits=5,gap=50")
			if err != nil {
				t.Fatal(err)
			}
			eng.Iterations = 1 << 30 // effectively unbounded: the loop never finishes
			n.PacketPool().Preallocate(4096)
			Drive(n, eng, 20000, nil) // several training iterations: all buffers at high-water marks
			allocs := testing.AllocsPerRun(10, func() {
				Drive(n, eng, n.Cycle()+500, nil)
			})
			if allocs != 0 {
				t.Fatalf("collective steady-state window allocated %.2f objects per 500 cycles; want exactly 0", allocs)
			}
			st := n.PacketPool().Stats
			if st.Reuses == 0 {
				t.Fatal("pool never recycled a packet — the zero-alloc result is vacuous")
			}
		})
	}
}

// TestSteadyStateAllocPopups holds a popup-bearing steady state to a
// pinned allocation count: a looping all-to-all under UPP completes popups
// in every measured window. The untraced popup path allocates nothing for
// its trace narration (every Trace call is guarded by Tracing); what it
// still allocates is UPP's popup record (startPopup) and the path
// chasePath traces for it, so maxPopupAllocs drops to 0 once those are
// pooled.
func TestSteadyStateAllocPopups(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-cycle warmup")
	}
	const maxPopupAllocs = 23
	s, err := Assemble(RunSpec{Topo: topology.BaselineConfig(), Scheme: SchemeUPP})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Net
	eng, _, err := workloadEngine(n, "all_to_all:flits=10")
	if err != nil {
		t.Fatal(err)
	}
	eng.Iterations = 1 << 30 // effectively unbounded: the loop never finishes
	n.PacketPool().Preallocate(4096)
	Drive(n, eng, 20000, nil)
	popups := n.Stats.PopupsCompleted
	allocs := testing.AllocsPerRun(10, func() {
		Drive(n, eng, n.Cycle()+500, nil)
	})
	if n.Stats.PopupsCompleted == popups {
		t.Fatal("no popup completed in the measured windows — the pin is vacuous")
	}
	t.Logf("%.2f objects per 500 cycles, %d popups completed", allocs, n.Stats.PopupsCompleted-popups)
	if allocs > maxPopupAllocs {
		t.Fatalf("popup steady-state window allocated %.2f objects per 500 cycles; want at most %d", allocs, maxPopupAllocs)
	}
}
