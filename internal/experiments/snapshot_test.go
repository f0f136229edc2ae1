package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/remotectl"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// snapSpec is the shared configuration of the checkpoint/restore
// equivalence tests: small enough to run under -race -short, loaded
// enough (1 VC, near the knee) that popups, signals and queued flits are
// in flight at the checkpoint cycle.
func snapSpec(sch SchemeName, arch string) RunSpec {
	return RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     sch,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.16,
		Seed:       11,
		Dur:        Durations{Warmup: 400, Measure: 800},
		RouterArch: arch,
	}
}

// restoreMatrix is the restore variants of every spec in the
// checkpoint/restore tests, by subtest name: a checkpoint written at the
// case's cycle under the active and naive kernels and under the parallel
// kernel at one and four workers, resumed under the kernel that wrote it,
// and the active run that writes one and goes on (writing it perturbs
// nothing).
func restoreMatrix() []variant {
	p1, p4 := variant{kernel: network.KernelParallel, shards: 1}, variant{kernel: network.KernelParallel, shards: 4}
	return []variant{active.resumedUnder(active, "active/shards"), naive.resumedUnder(naive, "naive/shards"),
		p1.resumedUnder(p1, "parallel/shards1"), p4.resumedUnder(p4, "parallel/shards4"), active}
}

// TestCheckpointRestoreEquivalence: a run checkpointed mid-measurement
// (cycle 700 of 400+800: statistics, event wheel and scheme FSMs all in
// flight) and resumed reproduces the uninterrupted run under every kernel
// and shard count, router arch and compared scheme. Not skipped under
// -short: CI runs this matrix under the race detector.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	c := equivCase{at: 700, variants: restoreMatrix(), sub: func(s RunSpec) string { return s.RouterArch + "/" + string(s.Scheme) }}
	for _, arch := range []string{"iq", "oq", "voq"} {
		for _, sch := range ComparedSchemes() {
			c.specs = append(c.specs, snapSpec(sch, arch))
		}
	}
	var popups uint64
	for _, d := range c.equivalent(t) {
		popups += d[0].pt.Popups
	}
	if popups == 0 {
		t.Fatal("no popups completed anywhere in the matrix — the checkpoint never exercised scheme FSM state")
	}
}

// TestCheckpointCarriesUPPConfig: a checkpoint of a run with RunSpec.UPP
// set resumes as that spec to its Point under the restore matrix, and
// that Point differs from the default threshold's, so a container that
// dropped the field would fail here.
func TestCheckpointCarriesUPPConfig(t *testing.T) {
	def, tuned := snapSpec(SchemeUPP, "iq"), snapSpec(SchemeUPP, "iq")
	tuned.UPP.Threshold = 1000
	ds := equivCase{specs: []RunSpec{tuned}, at: 700, variants: restoreMatrix()}.equivalent(t)
	if d := active.run(def, 0); d.err != nil || d.pt == ds[0][0].pt {
		t.Fatalf("threshold 1000 runs as the default does (%v): the test cannot see RunSpec.UPP", d.err)
	}
}

// TestCheckpointRestoreFaulted: a UPP run under the runtime fault engine,
// checkpointed mid-flap with signal drops and delays armed, resumes under
// the restore matrix to the uninterrupted run. The signal fates are
// stateless hashes of the cycle, but the hardened UPP's retry and timeout
// state they induce is not.
func TestCheckpointRestoreFaulted(t *testing.T) {
	faulted := snapSpec(SchemeUPP, "iq")
	faulted.Rate, faulted.FaultPlan = 0.05, "seed=9,flaps=4,flapevery=200,drop=0.15,delayprob=0.1"
	equivCase{specs: []RunSpec{faulted}, at: 700, variants: restoreMatrix()}.equivalent(t)
}

// TestCheckpointIsPureObservation: a checkpoint at the end of warmup, the
// warm-start capture point (before the measurement reset), neither
// perturbs the run that writes it nor the one that resumes it.
func TestCheckpointIsPureObservation(t *testing.T) {
	equivCase{specs: []RunSpec{snapSpec(SchemeUPP, "iq"), snapSpec(SchemeRemoteControl, "iq")}, at: 400,
		variants: []variant{active, active.resumedUnder(active, "")}}.equivalent(t)
}

// TestCheckpointRestoreAcrossKernels: the kernel is not in the cache key,
// so a warm checkpoint written under one kernel resumes under another. On
// oq routers (where UPP has popups in flight at cycle 700), checkpoints
// written under the active, naive and parallel (2 and 3 workers) kernels
// resume under another to the uninterrupted run, and every writer's bytes
// are the active kernel's: a checkpoint holds simulation state only.
func TestCheckpointRestoreAcrossKernels(t *testing.T) {
	p2, p3 := variant{kernel: network.KernelParallel, shards: 2}, variant{kernel: network.KernelParallel, shards: 3}
	c := equivCase{at: 700, variants: []variant{active.resumedUnder(naive, "active_to_naive"), active.resumedUnder(p2, "active_to_parallel"),
		naive.resumedUnder(active, "naive_to_active"), p2.resumedUnder(active, "parallel2_to_active"), p3.resumedUnder(naive, "parallel3_to_naive")},
		sub: func(s RunSpec) string { return string(s.Scheme) }}
	for _, sch := range ComparedSchemes() {
		c.specs = append(c.specs, snapSpec(sch, "oq"))
	}
	upp := c.equivalent(t)[slices.Index(ComparedSchemes(), SchemeUPP)]
	if n, _, _, err := ReadCheckpoint(upp[1].mid.Bytes(), "", 0); err != nil || n.Scheme().(*core.UPP).ActivePopups() == 0 {
		t.Fatalf("no popup in flight at UPP's checkpoint (%v): the restore does not cover popup state", err)
	}
}

// TestSnapshotBytesPinned pins the on-disk checkpoint encoding (the UPWR
// container around a UPWS snapshot) for every router microarchitecture
// under UPP, and for remote control's control-plane section on iq: the
// result cache keeps warm-start checkpoints across builds and
// snapVersion only moves when the format does, so a refactor of the
// datapath must keep writing these bytes. The digests last moved when
// the writer began to put each wheel slot in canonical order (flits and
// credits sorted, then the slot's scheme calls): only the order of the
// records within a slot moved, and a checkpoint written before reads
// back and re-writes as these bytes.
// The oq run is checked to hold staged flits at the checkpoint cycle, so
// its staging section is non-trivially covered, and the remote-control run
// to hold a queued reservation request, a grant and a live boundary slot,
// so its control-plane section is.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, pin := range []struct {
		name string
		spec RunSpec
		want string
	}{
		{"iq", snapSpec(SchemeUPP, "iq"), "99c6c6dbfbc3cb56b28ad45ed42ba91a915071df0ed60ff562e5c570dd3b11a9"},
		{"oq", snapSpec(SchemeUPP, "oq"), "5fedc9b5e73d1a938180c23dfaa8a5c53c00945ba7906113e9eb977c42428320"},
		{"voq", snapSpec(SchemeUPP, "voq"), "12e4505aacef1d09a164a7fd9c72a681efae0d2fe689eadc531b450006454988"},
		{"remote_control", snapSpec(SchemeRemoteControl, "iq"), "4b24009ff9f2a669a2dc7026f25935cf40fd8547c1f2ff5dc835bc3b92169ab9"},
	} {
		var buf bytes.Buffer
		if _, err := RunCheckpointed(pin.spec, 700, &buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != pin.want {
			t.Errorf("%s: checkpoint at cycle 700 (%d bytes) has sha256 %s, want %s", pin.name, buf.Len(), got, pin.want)
		}
		n, _, _, err := ReadCheckpoint(buf.Bytes(), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if rc, ok := n.Scheme().(*remotectl.Scheme); ok {
			if queued, granted, live := rc.Load(); queued == 0 || granted == 0 || live == 0 {
				t.Errorf("%s: %d requests queued, %d grants, %d live slots at the checkpoint cycle", pin.name, queued, granted, live)
			}
			continue
		}
		staged := 0
		for i, r := range n.Routers {
			for pi := range n.Topo.Nodes[i].Ports {
				staged += r.StagedCount(topology.PortID(pi))
			}
		}
		if (pin.name == "oq") != (staged > 0) {
			t.Errorf("%s: %d flits staged at the checkpoint cycle", pin.name, staged)
		}
	}
}

// TestCheckpointReadsLinkLatencyKeys: containers written while the
// topology configs still had link-latency fields carry "LinkLatency" (and,
// for a scale-out spec, "InterTileLatency") in their canonical spec. Such a
// container must still restore through ReadCheckpoint and finish to the
// uninterrupted run's Point.
func TestCheckpointReadsLinkLatencyKeys(t *testing.T) {
	tiled := snapSpec(SchemeUPP, "iq")
	tiled.Topo = topology.SystemConfig{}
	tiled.Scale = &topology.ScaleConfig{TilesX: 2, TilesY: 1, TileW: 4, TileH: 4, ChipletsX: 2, ChipletsY: 2,
		ChipletW: 2, ChipletH: 2, BoundaryPerChiplet: 1, Seed: 1}
	// withKeys splices keys in front of the "Seed" field of the named
	// object, where encoding/json put the deleted fields.
	withKeys := func(spec []byte, obj, keys string) []byte {
		i := bytes.Index(spec, []byte(`"`+obj+`":{`))
		j := i + bytes.Index(spec[i:], []byte(`"Seed":`))
		return slices.Concat(spec[:j], []byte(keys), spec[j:])
	}
	for _, tc := range []struct {
		name string
		spec RunSpec
		old  func([]byte) []byte
	}{
		{"flat", snapSpec(SchemeUPP, "iq"), func(s []byte) []byte { return withKeys(s, "topo", `"LinkLatency":1,`) }},
		{"tiled", tiled, func(s []byte) []byte {
			return withKeys(withKeys(s, "topo", `"LinkLatency":0,`), "scale", `"LinkLatency":1,"InterTileLatency":4,`)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := RunCheckpointed(tc.spec, 700, &buf); err != nil {
				t.Fatal(err)
			}
			spec, payload, err := splitCheckpoint(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			spec = tc.old(spec)
			container := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), uint32(len(spec)))
			container = slices.Concat(container, spec, payload)
			if _, _, rspec, err := ReadCheckpoint(container, "", 0); err != nil {
				t.Fatalf("container with header %s: %v", spec, err)
			} else if rspec.Topo != tc.spec.Topo || (rspec.Scale == nil) != (tc.spec.Scale == nil) {
				t.Fatalf("header %s read back as topo %+v scale %v", spec, rspec.Topo, rspec.Scale)
			}
			restored, _, err := RunRestored(container, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if restored != plain {
				t.Fatalf("header %s: restored run diverged:\nplain:    %+v\nrestored: %+v", spec, plain, restored)
			}
		})
	}
}

// snapEnv is one assembled simulation with its traffic source and the
// extras its snapshots carry.
type snapEnv struct {
	net    *network.Network
	src    TrafficSource
	extras []network.SnapshotExtra
}

// assembleSnapEnv builds spec's machine at cycle 0: the collective engine
// when the spec names a workload, the rate generator (plus the
// reconfiguration engine, when the plan attaches one) otherwise.
func assembleSnapEnv(tb testing.TB, spec RunSpec) snapEnv {
	tb.Helper()
	if spec.Workload == "" {
		n, g, err := BuildRun(spec)
		if err != nil {
			tb.Fatal(err)
		}
		return snapEnv{n, g, snapshotExtras(n, g)}
	}
	sm, err := Assemble(spec)
	if err != nil {
		tb.Fatal(err)
	}
	eng, _, err := workloadEngine(sm.Net, spec.Workload)
	if err != nil {
		tb.Fatal(err)
	}
	return snapEnv{sm.Net, eng, []network.SnapshotExtra{eng}}
}

// loadedSnapshot drives a fresh environment of spec to cycle at and
// returns it with its snapshot.
func loadedSnapshot(tb testing.TB, spec RunSpec, at int64) (snapEnv, []byte) {
	tb.Helper()
	e := assembleSnapEnv(tb, spec)
	Drive(e.net, e.src, at, nil)
	var buf bytes.Buffer
	if err := e.net.WriteSnapshot(&buf, e.extras...); err != nil {
		tb.Fatal(err)
	}
	return e, buf.Bytes()
}

// snapWorkloadSpec is snapSpec's machine under a closed-loop collective;
// snapReconfigSpec the same machine losing two interposer links at cycle
// 400 in one epoch transition, which is still draining at cycle 410.
func snapWorkloadSpec() RunSpec {
	spec := snapSpec(SchemeUPP, "iq")
	spec.Pattern, spec.Rate, spec.Workload = nil, 0, "all_to_all:iters=4"
	return spec
}

func snapReconfigSpec() RunSpec {
	spec := snapSpec(SchemeUPP, "iq")
	spec.FaultPlan = "kill=3@400,kill=9@400,mode=epoch"
	return spec
}

// TestSnapshotEverySectionReencodes: on every scheme and router
// implementation, and with each kind of extra, a loaded snapshot restores
// into a freshly assembled twin that writes the identical bytes back, and
// the two then run on to equal statistics. Each section is one description
// walked in both directions, so this is the check that the decode
// direction rebuilds everything the encode direction reads.
func TestSnapshotEverySectionReencodes(t *testing.T) {
	type tcase struct {
		name   string
		spec   RunSpec
		at     int64
		loaded func(e snapEnv) bool
	}
	busy := func(e snapEnv) bool { return e.net.InFlight() > 0 }
	var cases []tcase
	for _, sch := range []SchemeName{SchemeUPP, SchemeRemoteControl, SchemeComposable} {
		for _, arch := range []string{"iq", "oq", "voq"} {
			cases = append(cases, tcase{fmt.Sprintf("%s/%s", sch, arch), snapSpec(sch, arch), 700, busy})
		}
	}
	cases = append(cases,
		tcase{"upp/workload", snapWorkloadSpec(), 300, busy},
		tcase{"upp/reconfig mid-transition", snapReconfigSpec(), 410, func(e snapEnv) bool { return e.net.TransitionActive() }})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orig, first := loadedSnapshot(t, c.spec, c.at)
			if !c.loaded(orig) {
				t.Fatalf("cycle %d is not a loaded cycle for this case", c.at)
			}
			twin := assembleSnapEnv(t, c.spec)
			if err := twin.net.ReadSnapshot(first, twin.extras...); err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := twin.net.WriteSnapshot(&second, twin.extras...); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second.Bytes()) {
				t.Fatalf("re-written snapshot differs from the one restored (%d vs %d bytes)", second.Len(), len(first))
			}
			Drive(orig.net, orig.src, c.at+500, nil)
			Drive(twin.net, twin.src, c.at+500, nil)
			if orig.net.Stats != twin.net.Stats {
				t.Fatalf("runs diverged after the restore:\noriginal %+v\nrestored %+v", orig.net.Stats, twin.net.Stats)
			}
		})
	}
}
