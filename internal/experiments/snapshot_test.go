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

// TestCheckpointRestoreEquivalence is the tentpole acceptance test: a run
// checkpointed at cycle C and resumed from the checkpoint must reproduce
// the uninterrupted run bit-identically, across every cycle kernel, shard
// count, router microarchitecture and both popup-style schemes. The
// checkpoint lands mid-measurement (cycle 700 of a 400+800 schedule), so
// the statistics, latency histogram, event wheel and scheme FSMs are all
// mid-flight when serialized. Deliberately not skipped under -short: CI
// runs this matrix under the race detector.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	kernels := []struct {
		name   string
		shards string
	}{
		{"active", ""},
		{"naive", ""},
		{"parallel", "1"},
		{"parallel", "4"},
	}
	var totalPopups uint64
	for _, k := range kernels {
		for _, arch := range []string{"iq", "oq", "voq"} {
			for _, sch := range []SchemeName{SchemeUPP, SchemeRemoteControl} {
				name := fmt.Sprintf("%s/shards%s/%s/%s", k.name, k.shards, arch, sch)
				t.Run(name, func(t *testing.T) {
					t.Setenv("UPP_KERNEL", k.name)
					t.Setenv("UPP_SHARDS", k.shards)
					t.Setenv("UPP_CACHE_DIR", "")
					spec := snapSpec(sch, arch)
					var buf bytes.Buffer
					cold, err := RunCheckpointed(spec, 700, &buf)
					if err != nil {
						t.Fatal(err)
					}
					restored, rspec, err := RunRestored(buf.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					if restored != cold {
						t.Fatalf("restored run diverged from uninterrupted run:\ncold:     %+v\nrestored: %+v", cold, restored)
					}
					if rspec.Scheme != spec.Scheme || rspec.RouterArch != spec.RouterArch {
						t.Fatalf("checkpoint spec round-trip: got scheme=%s arch=%s", rspec.Scheme, rspec.RouterArch)
					}
					totalPopups += cold.Popups
				})
			}
		}
	}
	if totalPopups == 0 {
		t.Fatal("no popups completed anywhere in the matrix — the checkpoint never exercised scheme FSM state")
	}
}

// TestCheckpointIsPureObservation pins that writing a checkpoint does not
// perturb the run: RunCheckpointed's Point equals plain Run's, for both a
// mid-measurement and an end-of-warmup checkpoint cycle (the latter is
// the warm-start capture point, before the measurement reset).
func TestCheckpointIsPureObservation(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", "")
	for _, sch := range []SchemeName{SchemeUPP, SchemeRemoteControl} {
		spec := snapSpec(sch, "iq")
		plain, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int64{400, 700} {
			var buf bytes.Buffer
			pt, err := RunCheckpointed(spec, at, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if pt != plain {
				t.Fatalf("%s: checkpoint at %d perturbed the run:\nplain:        %+v\ncheckpointed: %+v", sch, at, pt, plain)
			}
			restored, _, err := RunRestored(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if restored != plain {
				t.Fatalf("%s: restore from cycle %d diverged:\nplain:    %+v\nrestored: %+v", sch, at, restored, plain)
			}
		}
	}
}

// TestCheckpointCarriesUPPConfig: a checkpoint of a run with RunSpec.UPP
// set embeds the setting, so the restored run rebuilds the same scheme
// and returns Run's Point — which differs from the default threshold's,
// so a container that dropped the field would fail here.
func TestCheckpointCarriesUPPConfig(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", "")
	spec := snapSpec(SchemeUPP, "iq")
	def, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.UPP.Threshold = 1000
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain == def {
		t.Fatalf("threshold 1000 runs as the default does (%+v): the test cannot see the field", plain)
	}
	var buf bytes.Buffer
	if _, err := RunCheckpointed(spec, 700, &buf); err != nil {
		t.Fatal(err)
	}
	restored, rspec, err := RunRestored(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if restored != plain || rspec.UPP != spec.UPP {
		t.Fatalf("restore of a threshold-1000 checkpoint: UPP %+v\nrestored: %+v\nwant:     %+v", rspec.UPP, restored, plain)
	}
}

// TestCheckpointRestoreFaulted checkpoints a run with the runtime fault
// engine active — link flaps in progress, signal drops and delays armed —
// in the middle of a flap window, and requires bit-identical resumption.
// The fault engine's signal fates are stateless hashes of the cycle, but
// the retry/timeout state they induce in the hardened UPP scheme is not;
// this pins that that state survives serialization.
func TestCheckpointRestoreFaulted(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", "")
	spec := snapSpec(SchemeUPP, "iq")
	spec.Rate = 0.05
	spec.FaultPlan = "seed=9,flaps=4,flapevery=200,drop=0.15,delayprob=0.1"
	var buf bytes.Buffer
	cold, err := RunCheckpointed(spec, 700, &buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := RunRestored(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if restored != cold {
		t.Fatalf("faulted restore diverged:\ncold:     %+v\nrestored: %+v", cold, restored)
	}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain != cold {
		t.Fatalf("faulted checkpoint perturbed the run:\nplain:        %+v\ncheckpointed: %+v", plain, cold)
	}
}

// TestCheckpointRestoreAcrossKernels: the kernel is not part of the cache
// key, so a warm checkpoint written under one kernel is resumed under
// another. A UPP checkpoint at cycle 700 on oq routers (which need the
// most popups: three are in flight there), written under the active
// kernel resumes under the oracle and under the parallel
// kernel, one written under the oracle resumes under the active kernel,
// and ones written under the parallel kernel (2 and 3 workers) resume
// under the active kernel and the oracle, each to the uninterrupted run's
// Point. The parallel writer's files are also byte for byte the active
// kernel's: a checkpoint does not record which kernel wrote it. The oracle restores
// correctly because it wakes every router and NI at the top of the next
// cycle, whatever awake sets the writer left.
func TestCheckpointRestoreAcrossKernels(t *testing.T) {
	for _, env := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_CACHE_DIR"} {
		t.Setenv(env, "")
	}
	spec := snapSpec(SchemeUPP, "oq")
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var active bytes.Buffer
	if _, err := RunCheckpointed(spec, 700, &active); err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct{ name, write, writeShards, read, readShards string }{
		{"active_to_naive", network.KernelActive, "", network.KernelNaive, ""},
		{"active_to_parallel", network.KernelActive, "", network.KernelParallel, "2"},
		{"naive_to_active", network.KernelNaive, "", network.KernelActive, ""},
		{"parallel2_to_active", network.KernelParallel, "2", network.KernelActive, ""},
		{"parallel3_to_naive", network.KernelParallel, "3", network.KernelNaive, ""},
	} {
		t.Run(leg.name, func(t *testing.T) {
			t.Setenv("UPP_KERNEL", leg.write)
			t.Setenv("UPP_SHARDS", leg.writeShards)
			var buf bytes.Buffer
			if _, err := RunCheckpointed(spec, 700, &buf); err != nil {
				t.Fatal(err)
			}
			if leg.write == network.KernelParallel && !bytes.Equal(buf.Bytes(), active.Bytes()) {
				t.Fatalf("the checkpoint written under %s with %s workers differs from the active kernel's", leg.write, leg.writeShards)
			}
			t.Setenv("UPP_KERNEL", leg.read)
			t.Setenv("UPP_SHARDS", leg.readShards)
			n, _, _, err := ReadCheckpoint(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if n.Kernel() != leg.read {
				t.Fatalf("restored under kernel %q, want %q", n.Kernel(), leg.read)
			}
			if live := n.Scheme().(*core.UPP).ActivePopups(); live == 0 {
				t.Fatal("no popup in flight at the checkpoint: the restore does not cover popup state")
			}
			restored, _, err := RunRestored(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if restored != plain {
				t.Fatalf("written under %s, resumed under %s: diverged from the uninterrupted run:\nplain:    %+v\nrestored: %+v",
					leg.write, leg.read, plain, restored)
			}
		})
	}
}

// TestSnapshotBytesPinned pins the on-disk checkpoint encoding (the UPWR
// container around a UPWS snapshot) for every router microarchitecture:
// the result cache keeps warm-start checkpoints across builds and
// snapVersion only moves when the format does, so a refactor of the
// datapath must keep writing these bytes. The UPWS payloads are those of
// commit 944f7a7 (the last one with separate OQ/VOQ router types); the
// digests last moved when the canonical spec in the header lost the
// deleted link-latency fields, with the payloads byte-identical. The oq
// run is checked to hold staged flits at the checkpoint cycle, so its
// staging section is non-trivially covered.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, env := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_CACHE_DIR"} {
		t.Setenv(env, "")
	}
	for _, pin := range [][2]string{
		{"iq", "ba2e731c82bdf629341806c55de76b87e52985d1c7c04940214fce6e47e43f50"},
		{"oq", "c4bf09e2a4b5d5c59932a3ff65f86d83a2f296080341ce85ccfb08cd935a4ccc"},
		{"voq", "f1319b51e204b1918a0b623f4ed0a69ffdadf1f0874afd63055489c60a2890b7"},
	} {
		arch, want := pin[0], pin[1]
		var buf bytes.Buffer
		if _, err := RunCheckpointed(snapSpec(SchemeUPP, arch), 700, &buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: checkpoint at cycle 700 (%d bytes) has sha256 %s, want %s", arch, buf.Len(), got, want)
		}
		n, _, _, err := ReadCheckpoint(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		staged := 0
		for i, r := range n.Routers {
			for pi := range n.Topo.Nodes[i].Ports {
				staged += r.StagedCount(topology.PortID(pi))
			}
		}
		if (arch == "oq") != (staged > 0) {
			t.Errorf("%s: %d flits staged at the checkpoint cycle", arch, staged)
		}
	}
}

// TestCheckpointReadsLinkLatencyKeys: containers written while the
// topology configs still had link-latency fields carry "LinkLatency" (and,
// for a scale-out spec, "InterTileLatency") in their canonical spec. Such a
// container must still restore through ReadCheckpoint and finish to the
// uninterrupted run's Point.
func TestCheckpointReadsLinkLatencyKeys(t *testing.T) {
	for _, env := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_CACHE_DIR"} {
		t.Setenv(env, "")
	}
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
			if _, _, rspec, err := ReadCheckpoint(container); err != nil {
				t.Fatalf("container with header %s: %v", spec, err)
			} else if rspec.Topo != tc.spec.Topo || (rspec.Scale == nil) != (tc.spec.Scale == nil) {
				t.Fatalf("header %s read back as topo %+v scale %v", spec, rspec.Topo, rspec.Scale)
			}
			restored, _, err := RunRestored(container)
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
	for _, env := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_CACHE_DIR"} {
		t.Setenv(env, "")
	}
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
