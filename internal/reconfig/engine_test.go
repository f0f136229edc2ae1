package reconfig_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// pickKillable returns n interposer mesh link IDs that can all be
// persistently killed (cumulatively) without partitioning any layer. It
// works on a scratch topology so the caller's is untouched.
func pickKillable(t *testing.T, n int) []int {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	var ids []int
	for _, l := range topo.Links {
		if len(ids) == n {
			break
		}
		if l.Vertical || l.Faulty || topo.Node(l.A).Chiplet != topology.InterposerChiplet {
			continue
		}
		l.Faulty = true
		if _, err := routing.NewUpDown(topo); err == nil {
			ids = append(ids, l.ID)
		} else {
			l.Faulty = false
		}
	}
	if len(ids) < n {
		t.Fatalf("found only %d killable interposer links, want %d", len(ids), n)
	}
	return ids
}

// reconfigRun is one soak: load under a persistent fault plan, then
// drain. When snapshotAt > 0 a checkpoint (network + engine + generator)
// is captured at that cycle boundary.
type reconfigRun struct {
	stats       network.Stats
	finalCycle  sim.Cycle
	transitions []reconfig.Transition
	cuts        []reconfig.CutInfo
	checkpoint  []byte
}

func buildReconfigNet(t *testing.T, kernel string, plan faults.Plan, mode reconfig.Mode, seed uint64) (*network.Network, *reconfig.Engine, *traffic.Generator) {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	cfg.UseUpDown = true
	cfg.Seed = seed
	n, err := network.New(topo, cfg, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := reconfig.Attach(n, reconfig.Config{Plan: plan, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGenerator(n, traffic.UniformRandom{}, 0.10, seed+7777)
	g.CoreAlive = func(id topology.NodeID) bool {
		return eng.ChipletAlive(n.Topo.Node(id).Chiplet)
	}
	return n, eng, g
}

func runReconfigSoak(t *testing.T, kernel string, plan faults.Plan, mode reconfig.Mode, loadCycles int, snapshotAt sim.Cycle) reconfigRun {
	t.Helper()
	n, eng, g := buildReconfigNet(t, kernel, plan, mode, 5)
	out := reconfigRun{}
	for i := 0; i < loadCycles; i++ {
		g.Tick(n.Cycle())
		n.Step()
		if snapshotAt > 0 && n.Cycle() == snapshotAt {
			var buf bytes.Buffer
			if err := n.WriteSnapshot(&buf, g, eng); err != nil {
				t.Fatalf("WriteSnapshot at %d: %v", snapshotAt, err)
			}
			out.checkpoint = buf.Bytes()
		}
	}
	g.SetRate(0)
	if err := n.Drain(40000, 4000); err != nil {
		t.Fatalf("%s: drain: %v", kernel, err)
	}
	if !n.Quiesced() {
		t.Fatalf("%s: drain returned with %d packets in flight", kernel, n.InFlight())
	}
	if err := n.CheckQuiescent(); err != nil {
		t.Fatalf("%s: quiescent audit: %v", kernel, err)
	}
	if !eng.Done() {
		t.Fatalf("%s: engine not done after drain (cursor mid-plan or transition stuck)", kernel)
	}
	// Zero post-cut dead-link traffic: the endpoints' sent counters must
	// not have moved since the cut was applied. Links revived by a later
	// hot-add legitimately carry traffic again and are skipped.
	for _, c := range eng.Cuts() {
		l := n.Topo.Links[c.Link]
		if !l.Faulty {
			continue
		}
		sa := n.Routers[l.A].PortSent(l.APort)
		sb := n.Routers[l.B].PortSent(l.BPort)
		if sa != c.SentA || sb != c.SentB {
			t.Fatalf("%s: link %d carried traffic after its cut at cycle %d: sent A %d->%d, B %d->%d",
				kernel, c.Link, c.Cycle, c.SentA, sa, c.SentB, sb)
		}
	}
	out.stats = n.Stats
	out.finalCycle = n.Cycle()
	out.transitions = append(out.transitions, eng.Transitions()...)
	out.cuts = append(out.cuts, eng.Cuts()...)
	return out
}

// TestReconfigKillSoak is the acceptance soak: two interposer mesh links
// die persistently under uniform-random load; the run must reconfigure,
// migrate in-flight traffic, finish the transition, quiesce, and be
// bit-identical across all three cycle kernels.
func TestReconfigKillSoak(t *testing.T) {
	links := pickKillable(t, 2)
	plan := faults.Plan{
		Kills: []faults.LinkKill{
			{Link: links[0], Cycle: 400},
			{Link: links[1], Cycle: 400},
		},
	}
	var base reconfigRun
	for i, kernel := range []string{network.KernelNaive, network.KernelActive, network.KernelParallel} {
		out := runReconfigSoak(t, kernel, plan, reconfig.ModeAuto, 1500, 0)
		if out.stats.Reconfigs != 1 {
			t.Fatalf("%s: Reconfigs = %d, want 1 (one batch)", kernel, out.stats.Reconfigs)
		}
		if out.stats.LinksKilled != 2 || len(out.cuts) != 2 {
			t.Fatalf("%s: LinksKilled=%d cuts=%d, want 2/2", kernel, out.stats.LinksKilled, len(out.cuts))
		}
		if len(out.transitions) != 1 || out.transitions[0].Finish < 0 {
			t.Fatalf("%s: transition did not finish: %+v", kernel, out.transitions)
		}
		if i == 0 {
			base = out
			continue
		}
		if out.stats != base.stats {
			t.Fatalf("%s diverged from %s:\n%+v\nvs\n%+v", kernel, network.KernelNaive, out.stats, base.stats)
		}
		if out.finalCycle != base.finalCycle {
			t.Fatalf("%s final cycle %d != %d", kernel, out.finalCycle, base.finalCycle)
		}
	}
	// Routes actually changed: rebuild the post-kill tables and require
	// (a) at least one interposer pair's path to differ from the
	// pre-kill tables' and (b) no new path to cross a killed link.
	topo := topology.MustBuild(topology.BaselineConfig())
	before, err := routing.NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range links {
		topo.Links[id].Faulty = true
	}
	after, err := routing.NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	nodes := topo.LayerNodes(topology.InterposerChiplet)
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			pb, err := reconfig.WalkRoute(topo, before, topology.InterposerChiplet, src, dst)
			if err != nil {
				// The old tables may legitimately fail across dead links.
				diverged++
				continue
			}
			pa, err := reconfig.WalkRoute(topo, after, topology.InterposerChiplet, src, dst)
			if err != nil {
				t.Fatalf("new tables cannot route %d -> %d: %v", src, dst, err)
			}
			for i := 0; i+1 < len(pa); i++ {
				for _, id := range links {
					l := topo.Links[id]
					if (pa[i] == l.A && pa[i+1] == l.B) || (pa[i] == l.B && pa[i+1] == l.A) {
						t.Fatalf("new route %v crosses killed link %d", pa, id)
					}
				}
			}
			if len(pa) != len(pb) {
				diverged++
				continue
			}
			for i := range pa {
				if pa[i] != pb[i] {
					diverged++
					break
				}
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no interposer route changed across the reconfiguration")
	}
}

// TestReconfigModeForcing pins the Mode overrides: the same plan runs as
// an epoch transition under ModeEpoch (injection held, heads migrated
// accounting possible) and drainlessly under ModeDrainless.
func TestReconfigModeForcing(t *testing.T) {
	links := pickKillable(t, 2)
	plan := faults.Plan{
		Kills: []faults.LinkKill{
			{Link: links[0], Cycle: 300},
			{Link: links[1], Cycle: 300},
		},
	}
	epoch := runReconfigSoak(t, network.KernelActive, plan, reconfig.ModeEpoch, 1200, 0)
	if epoch.stats.ReconfigsEpoch != 1 || epoch.stats.ReconfigsDrainless != 0 {
		t.Fatalf("ModeEpoch: epoch=%d drainless=%d", epoch.stats.ReconfigsEpoch, epoch.stats.ReconfigsDrainless)
	}
	if !epoch.transitions[0].Hold {
		t.Fatal("ModeEpoch transition did not hold injection")
	}
	drainless := runReconfigSoak(t, network.KernelActive, plan, reconfig.ModeDrainless, 1200, 0)
	if drainless.stats.ReconfigsDrainless != 1 || drainless.stats.ReconfigsEpoch != 0 {
		t.Fatalf("ModeDrainless: epoch=%d drainless=%d", drainless.stats.ReconfigsEpoch, drainless.stats.ReconfigsDrainless)
	}
	if drainless.transitions[0].Hold {
		t.Fatal("ModeDrainless transition held injection")
	}
	if drainless.stats.ReconfigHeldStreams != 0 {
		t.Fatalf("ModeDrainless held %d streams", drainless.stats.ReconfigHeldStreams)
	}
}

// TestReconfigHotAdd kills a link and later revives it; the second
// transition must put it back into service.
func TestReconfigHotAdd(t *testing.T) {
	links := pickKillable(t, 1)
	plan := faults.Plan{
		Kills: []faults.LinkKill{{Link: links[0], Cycle: 300}},
		Adds:  []faults.LinkAdd{{Link: links[0], Cycle: 1200}},
	}
	out := runReconfigSoak(t, network.KernelActive, plan, reconfig.ModeAuto, 2400, 0)
	if out.stats.Reconfigs != 2 {
		t.Fatalf("Reconfigs = %d, want 2 (kill batch + add batch)", out.stats.Reconfigs)
	}
	if out.stats.LinksKilled != 1 || out.stats.LinksRevived != 1 {
		t.Fatalf("killed=%d revived=%d, want 1/1", out.stats.LinksKilled, out.stats.LinksRevived)
	}
}

// TestReconfigChipletKill: a chiplet fail-stop is a compute event, not a
// routing event — no transition runs, the surviving cores keep going,
// and the network quiesces.
func TestReconfigChipletKill(t *testing.T) {
	plan := faults.Plan{
		ChipletKills: []faults.ChipletKill{{Chiplet: 1, Cycle: 250}},
	}
	n, eng, g := buildReconfigNet(t, network.KernelActive, plan, reconfig.ModeAuto, 5)
	for i := 0; i < 1000; i++ {
		g.Tick(n.Cycle())
		n.Step()
	}
	if eng.ChipletAlive(1) {
		t.Fatal("chiplet 1 still alive after its kill event")
	}
	if !eng.ChipletAlive(0) {
		t.Fatal("chiplet 0 died collaterally")
	}
	g.SetRate(0)
	if err := n.Drain(20000, 4000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.Stats.Reconfigs != 0 {
		t.Fatalf("chiplet fail-stop triggered %d routing transitions", n.Stats.Reconfigs)
	}
	if !eng.Done() {
		t.Fatal("engine not done")
	}
}

// TestReconfigAttachRejects pins Attach's structured validation: plans
// that target vertical links, out-of-range IDs, or would partition a
// layer must fail at attach time, before any cycle runs.
func TestReconfigAttachRejects(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.UseUpDown = true
	n, err := network.New(topo, cfg, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	vertical := -1
	for _, l := range topo.Links {
		if l.Vertical {
			vertical = l.ID
			break
		}
	}
	if vertical < 0 {
		t.Fatal("no vertical link in baseline topology")
	}
	cases := []struct {
		name string
		plan faults.Plan
		want string
	}{
		{"vertical kill", faults.Plan{Kills: []faults.LinkKill{{Link: vertical, Cycle: 10}}}, "vertical"},
		{"out of range", faults.Plan{Kills: []faults.LinkKill{{Link: len(topo.Links), Cycle: 10}}}, "topology has"},
		{"bad chiplet", faults.Plan{ChipletKills: []faults.ChipletKill{{Chiplet: 99, Cycle: 10}}}, "chiplet"},
	}
	for _, tc := range cases {
		if _, err := reconfig.Attach(n, reconfig.Config{Plan: tc.plan}); err == nil {
			t.Fatalf("%s: Attach accepted the plan", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Partitioning plan: kill every mesh link at one interposer node.
	victim := topo.LayerNodes(topology.InterposerChiplet)[0]
	var part faults.Plan
	for _, p := range topo.Node(victim).Ports {
		if p.Link != nil && !p.Link.Vertical {
			part.Kills = append(part.Kills, faults.LinkKill{Link: p.Link.ID, Cycle: 50})
		}
	}
	if len(part.Kills) == 0 {
		t.Fatal("victim has no mesh links")
	}
	_, err = reconfig.Attach(n, reconfig.Config{Plan: part})
	if err == nil {
		t.Fatal("Attach accepted a partitioning plan")
	}
	var de *routing.DisconnectedError
	if !errors.As(err, &de) {
		t.Fatalf("partition error %v (%T) lacks a *routing.DisconnectedError", err, err)
	}
	// The dry run must have restored the construction-time Faulty set.
	for _, k := range part.Kills {
		if topo.Links[k.Link].Faulty {
			t.Fatalf("dry run leaked Faulty flag on link %d", k.Link)
		}
	}
}

// TestReconfigSnapshotMidTransition: a checkpoint captured while the
// epoch transition is in flight (fences up, mixed-epoch traffic) must
// restore into a run that finishes bit-identically to the uninterrupted
// one.
func TestReconfigSnapshotMidTransition(t *testing.T) {
	links := pickKillable(t, 2)
	plan := faults.Plan{
		Kills: []faults.LinkKill{
			{Link: links[0], Cycle: 400},
			{Link: links[1], Cycle: 400},
		},
	}
	for _, kernel := range []string{network.KernelNaive, network.KernelActive, network.KernelParallel} {
		t.Run(kernel, func(t *testing.T) {
			// ModeEpoch maximizes mid-transition state: injection hold,
			// fences, and an old epoch still draining at the checkpoint.
			cold := runReconfigSoak(t, kernel, plan, reconfig.ModeEpoch, 1500, 410)
			if cold.checkpoint == nil {
				t.Fatal("no checkpoint captured")
			}
			if len(cold.transitions) != 1 || cold.transitions[0].Begin != 400 {
				t.Fatalf("transition did not begin at the kill cycle: %+v", cold.transitions)
			}

			n2, eng2, g2 := buildReconfigNet(t, kernel, plan, reconfig.ModeEpoch, 5)
			if err := n2.ReadSnapshot(cold.checkpoint, g2, eng2); err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if !n2.TransitionActive() {
				t.Fatal("restored network has no active transition — checkpoint missed the window")
			}
			for i := int(n2.Cycle()); i < 1500; i++ {
				g2.Tick(n2.Cycle())
				n2.Step()
			}
			g2.SetRate(0)
			if err := n2.Drain(40000, 4000); err != nil {
				t.Fatalf("restored drain: %v", err)
			}
			if n2.Stats != cold.stats {
				t.Fatalf("restored run diverged:\ncold:     %+v\nrestored: %+v", cold.stats, n2.Stats)
			}
			if n2.Cycle() != cold.finalCycle {
				t.Fatalf("restored final cycle %d != %d", n2.Cycle(), cold.finalCycle)
			}
			if got, want := eng2.Transitions(), cold.transitions; len(got) != len(want) || got[0] != want[0] {
				t.Fatalf("restored transitions %+v != %+v", got, want)
			}
			if len(eng2.Cuts()) != len(cold.cuts) {
				t.Fatalf("restored cuts %+v != %+v", eng2.Cuts(), cold.cuts)
			}
			for i, c := range eng2.Cuts() {
				if c != cold.cuts[i] {
					t.Fatalf("restored cut %d: %+v != %+v", i, c, cold.cuts[i])
				}
			}
		})
	}
}

// TestReconfigSnapshotRejectsOutOfRangeFields: a phase or a transition
// epoch too wide for its field must fail the decode naming the field, not
// be truncated into a valid-looking value first (phase 256 restored as
// idle, 257 as fencing; an epoch above MaxUint32 wrapped). The varints
// are patched in the engine section of the mid-transition snapshot that
// TestReconfigSnapshotMidTransition takes.
func TestReconfigSnapshotRejectsOutOfRangeFields(t *testing.T) {
	links := pickKillable(t, 2)
	plan := faults.Plan{Kills: []faults.LinkKill{{Link: links[0], Cycle: 400}, {Link: links[1], Cycle: 400}}}
	snapshot := runReconfigSoak(t, network.KernelActive, plan, reconfig.ModeEpoch, 1500, 410).checkpoint
	// The engine is the last extra: label, cursor, phase, batch start and
	// end, the cuts (link, cycle, two sent counters each), the transition
	// count, then the first transition's epoch.
	section := bytes.LastIndex(snapshot, []byte("\x08reconfig"))
	if section < 0 {
		t.Fatal("no reconfig section in the snapshot")
	}
	pos := section + len("\x08reconfig")
	skip := func(fields int) {
		for ; fields > 0; fields-- {
			_, n := binary.Uvarint(snapshot[pos:]) // a zigzag varint spans the same bytes
			pos += n
		}
	}
	skip(1)
	phaseAt := pos
	skip(3)
	cuts, n := binary.Uvarint(snapshot[pos:])
	pos += n
	skip(4 * int(cuts))
	skip(1)
	epochAt := pos
	if phase, _ := binary.Uvarint(snapshot[phaseAt:]); phase == 0 {
		t.Fatal("snapshot is not mid-transition")
	}
	for _, tc := range []struct {
		name  string
		at    int
		value uint64
		want  string
	}{
		{"phase 256 (idle once truncated)", phaseAt, 256, "reconfig phase"},
		{"phase 257 (fencing once truncated)", phaseAt, 257, "reconfig phase"},
		{"phase 3", phaseAt, 3, "reconfig phase"},
		{"epoch past uint32", epochAt, math.MaxUint32 + 1, "transition epoch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, old := binary.Uvarint(snapshot[tc.at:])
			patched := binary.AppendUvarint(append([]byte(nil), snapshot[:tc.at]...), tc.value)
			patched = append(patched, snapshot[tc.at+old:]...)
			n2, eng2, g2 := buildReconfigNet(t, network.KernelActive, plan, reconfig.ModeEpoch, 5)
			err := n2.ReadSnapshot(patched, g2, eng2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestAttachTransientPlan: a plan with no persistent event gets the plain
// faults.Injector and no engine — nothing to reconfigure, and no engine
// section in the run's snapshots — while its transient windows are still
// validated and applied.
func TestAttachTransientPlan(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n, err := network.New(topo, network.DefaultConfig(), core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var mesh *topology.Link
	for _, l := range topo.Links {
		if !l.Vertical {
			mesh = l
			break
		}
	}
	if _, err := reconfig.Attach(n, reconfig.Config{Plan: faults.Plan{
		Flaps: []faults.LinkFlap{{Link: mesh.ID, Start: 5, End: 5}},
	}}); err == nil {
		t.Fatal("Attach accepted an empty flap window")
	}
	if n.FaultInjector() != nil {
		t.Fatal("a rejected plan left an injector installed")
	}
	eng, err := reconfig.Attach(n, reconfig.Config{Plan: faults.Plan{
		Flaps: []faults.LinkFlap{{Link: mesh.ID, Start: 2, End: 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if eng != nil {
		t.Fatal("transient plan built a reconfiguration engine")
	}
	if _, ok := n.FaultInjector().(*faults.Injector); !ok {
		t.Fatalf("installed injector is %T, want the plain *faults.Injector", n.FaultInjector())
	}
	n.Run(3)
	if !mesh.Down {
		t.Fatal("flap window not applied through the installed injector")
	}
}
