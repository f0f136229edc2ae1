package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
	"uppnoc/internal/workload"
)

// TestUpwardCensusTracksVCs drives every site that moves a router's upward
// census — route computation in all three microarchitectures, tail
// release, UPP's PopFront/ForceReleaseVC drains past held VCs,
// UnrouteFencedHeads under a link kill, and the recount in Restore — and
// holds census == recount from the VCs (CheckConservation's exhaustive
// mode) every 50 cycles, on the running system and on a twin restored
// from a mid-transition snapshot. The twin must also finish identically.
func TestUpwardCensusTracksVCs(t *testing.T) {
	links, err := KillableInterposerLinks(topology.BaselineConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const killAt, snapAt, total = 400, 410, 2400
	plan := faults.Plan{Kills: []faults.LinkKill{
		{Link: links[0], Cycle: killAt},
		{Link: links[1], Cycle: killAt},
	}}
	type system struct {
		n    *network.Network
		eng  *reconfig.Engine
		weng *workload.Engine
	}
	build := func(t *testing.T, arch, kernel string) system {
		t.Helper()
		cfg := network.DefaultConfig()
		cfg.Kernel = kernel
		cfg.RouterArch = arch
		cfg.UseUpDown = true
		cfg.Seed = 12
		n, err := network.New(topology.MustBuild(topology.BaselineConfig()), cfg, core.New(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := reconfig.Attach(n, reconfig.Config{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		weng, _, err := workloadEngine(n, "all_to_all:flits=10")
		if err != nil {
			t.Fatal(err)
		}
		weng.Iterations = 1 << 20
		return system{n, eng, weng}
	}
	// run steps s to cycle `to`, auditing every 50 cycles.
	run := func(t *testing.T, who string, s system, to int) {
		t.Helper()
		for int(s.n.Cycle()) < to {
			s.weng.Tick(s.n.Cycle())
			s.n.Step()
			if s.n.Cycle()%50 == 0 {
				if err := s.n.CheckConservation(); err != nil {
					t.Fatalf("%s at cycle %d: %v", who, s.n.Cycle(), err)
				}
			}
		}
	}
	for _, arch := range []string{router.ArchIQ, router.ArchOQ, router.ArchVOQ} {
		for _, kernel := range []string{network.KernelActive, network.KernelNaive, network.KernelParallel} {
			t.Run(fmt.Sprintf("%s/%s", arch, kernel), func(t *testing.T) {
				cold := build(t, arch, kernel)
				run(t, "cold", cold, snapAt)
				var buf bytes.Buffer
				if err := cold.n.WriteSnapshot(&buf, cold.eng, cold.weng); err != nil {
					t.Fatal(err)
				}
				twin := build(t, arch, kernel)
				if err := twin.n.ReadSnapshot(buf.Bytes(), twin.eng, twin.weng); err != nil {
					t.Fatal(err)
				}
				// The recount in Restore, audited before the twin steps.
				if err := twin.n.CheckConservation(); err != nil {
					t.Fatalf("twin right after restore: %v", err)
				}
				run(t, "cold", cold, total)
				run(t, "twin", twin, total)
				if cold.n.Stats != twin.n.Stats {
					t.Fatalf("restored twin diverged:\ncold: %+v\ntwin: %+v", cold.n.Stats, twin.n.Stats)
				}
				st := cold.n.Stats
				if st.PopupsCompleted == 0 || st.HeadsMigrated == 0 {
					t.Fatalf("run too tame to cover the census sites: %d popups completed, %d heads migrated",
						st.PopupsCompleted, st.HeadsMigrated)
				}
			})
		}
	}
}
