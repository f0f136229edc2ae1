package experiments

import (
	"runtime"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestKillChipletGatesRunSpec: a killchiplet event in a RunSpec's fault
// plan stops the chiplet — the generator BuildRun attaches is gated on
// the reconfiguration engine, as the soaks' always was. The run measures
// strictly fewer packets than the same spec without the event, no packet
// born after the kill has an endpoint in the dead chiplet, and the Point
// is the same under every kernel and across a checkpoint/restore split
// that straddles the kill.
func TestKillChipletGatesRunSpec(t *testing.T) {
	const killAt, chiplet = 1500, 1
	spec := RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     SchemeUPP,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.04,
		Seed:       11,
		Dur:        Durations{Warmup: 1000, Measure: 3000},
	}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.FaultPlan = "killchiplet=1@1500"
	ref := equivCase{specs: []RunSpec{spec}, at: 1200, variants: []variant{naive, parallel, active.resumedUnder(active, "")}}.equivalent(t)[0][0].pt
	if ref.Packets >= plain.Packets {
		t.Fatalf("killing chiplet %d left %d measured packets, not fewer than the %d without the kill", chiplet, ref.Packets, plain.Packets)
	}

	n, g, err := BuildRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	var before, after int
	for _, ni := range n.NIs {
		consume := ni.Consume
		ni.Consume = func(p *message.Packet, cycle sim.Cycle) bool {
			if n.Topo.Node(p.Src).Chiplet == chiplet || n.Topo.Node(p.Dst).Chiplet == chiplet {
				if p.BirthCycle > killAt {
					after++
				} else {
					before++
				}
			}
			return consume(p, cycle)
		}
	}
	Drive(n, g, 4000, nil)
	if before == 0 || after != 0 {
		t.Fatalf("chiplet %d saw %d packets born up to cycle %d and %d after; want some and none", chiplet, before, killAt, after)
	}
}

// TestAssembleAppliesHost: a run's kernel, shard count and router arch
// come from its RunSpec, else from the PoolOptions that hand the spec to
// a worker, else from network.New's defaults (active, GOMAXPROCS clamped
// to the block count, iq). Nothing else is consulted.
func TestAssembleAppliesHost(t *testing.T) {
	// 512 routers: eight 64-router blocks, so the worker counts below are
	// not clamped.
	sc := topology.ScaleSmallConfig()
	auto := min(runtime.GOMAXPROCS(0), 8)
	for _, tc := range []struct {
		name   string
		spec   RunSpec // its Kernel, Shards and RouterArch
		opts   PoolOptions
		kernel string
		shards int // as Network.Shards reports it: 0 off the parallel kernel
		arch   string
	}{
		{"defaults", RunSpec{}, PoolOptions{}, network.KernelActive, 0, router.ArchIQ},
		{"spec", RunSpec{Kernel: network.KernelParallel, Shards: 3, RouterArch: router.ArchVOQ}, PoolOptions{},
			network.KernelParallel, 3, router.ArchVOQ},
		{"pool", RunSpec{}, PoolOptions{Kernel: network.KernelParallel, Shards: 5, RouterArch: router.ArchOQ},
			network.KernelParallel, 5, router.ArchOQ},
		{"spec beats pool", RunSpec{Kernel: network.KernelNaive, Shards: 2, RouterArch: router.ArchVOQ},
			PoolOptions{Kernel: network.KernelParallel, Shards: 5, RouterArch: router.ArchOQ},
			network.KernelNaive, 0, router.ArchVOQ},
		{"pool fills what the spec leaves", RunSpec{Shards: 3}, PoolOptions{Kernel: network.KernelParallel, Shards: 5},
			network.KernelParallel, 3, router.ArchIQ},
		{"parallel without a count", RunSpec{Kernel: network.KernelParallel}, PoolOptions{},
			network.KernelParallel, auto, router.ArchIQ},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Scale, spec.Scheme = &sc, SchemeNone
			var n *network.Network
			tc.opts.run = func(s RunSpec) (Point, error) {
				sm, err := Assemble(s)
				if err == nil {
					n = sm.Net
				}
				return Point{}, err
			}
			if _, err := RunAll([]RunSpec{spec}, tc.opts); err != nil {
				t.Fatal(err)
			}
			if n.Kernel() != tc.kernel || n.Shards() != tc.shards || n.RouterArch() != tc.arch {
				t.Fatalf("kernel %q shards %d arch %q, want %q %d %q", n.Kernel(), n.Shards(), n.RouterArch(), tc.kernel, tc.shards, tc.arch)
			}
		})
	}
}
