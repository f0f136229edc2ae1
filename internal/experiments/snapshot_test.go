package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
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

// TestSnapshotBytesPinned pins the on-disk checkpoint encoding (the UPWR
// container around a UPWS snapshot) for every router microarchitecture:
// the result cache keeps warm-start checkpoints across builds and
// snapVersion only moves when the format does, so a refactor of the
// datapath must keep writing these bytes. The digests were computed at
// commit 944f7a7 (the last one with separate OQ/VOQ router types). The oq
// run is checked to hold staged flits at the checkpoint cycle, so its
// staging section is non-trivially covered.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, env := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_NOPOOL", "UPP_CACHE_DIR"} {
		t.Setenv(env, "")
	}
	for _, pin := range [][2]string{
		{"iq", "5dde431da56de246e5a50bf50fa918f3431e1d70ea5081b62f55768da625d897"},
		{"oq", "e1e5bcebdcb0af8e7230c08666b78961dcb0066b800618ea3fbe282e465073a7"},
		{"voq", "0e8419d25570333887312a4469240a331e557046f079b303b3c8946e7c0aa76f"},
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
	spec.FaultPlan, spec.Mode = "kill=3@400,kill=9@400", reconfig.ModeEpoch
	return spec
}

// TestSnapshotEverySectionReencodes: on every scheme and router
// implementation, and with each kind of extra, a loaded snapshot restores
// into a freshly assembled twin that writes the identical bytes back, and
// the two then run on to equal statistics. Each section is one description
// walked in both directions, so this is the check that the decode
// direction rebuilds everything the encode direction reads.
func TestSnapshotEverySectionReencodes(t *testing.T) {
	for _, env := range []string{"UPP_KERNEL", "UPP_SHARDS", "UPP_ROUTER", "UPP_NOPOOL", "UPP_CACHE_DIR"} {
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
