package workload_test

import (
	"strings"
	"testing"

	"uppnoc/internal/core"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/workload"
)

func newNet(t *testing.T, kernel string) *network.Network {
	t.Helper()
	topo := topology.MustBuild(topology.BaselineConfig())
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	return network.MustNew(topo, cfg, core.New(core.DefaultConfig()))
}

// runSpec builds and runs one workload to completion under UPP.
func runSpec(t *testing.T, kernel, spec string, maxCycles int) (*workload.Engine, *network.Network) {
	t.Helper()
	n := newNet(t, kernel)
	ws, err := workload.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ws.Build(len(n.Topo.Cores()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		t.Fatal(err)
	}
	eng.Iterations = ws.EngineIterations()
	if err := eng.Run(maxCycles); err != nil {
		t.Fatalf("%s under kernel %s: %v", spec, kernel, err)
	}
	return eng, n
}

// TestEveryWorkloadCompletes: each collective runs to completion under
// UPP on the baseline system, delivers exactly its program's message
// count, and leaves the network drainable and clean.
func TestEveryWorkloadCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			eng, n := runSpec(t, network.KernelActive, name, 400000)
			ws, _ := workload.ParseSpec(name)
			prog, _ := ws.Build(len(n.Topo.Cores()))
			want := uint64(prog.Messages()) * uint64(ws.EngineIterations())
			if eng.MessagesDelivered != want {
				t.Fatalf("delivered %d messages, want %d", eng.MessagesDelivered, want)
			}
			if err := n.Drain(50000, 5000); err != nil {
				t.Fatalf("post-completion drain: %v", err)
			}
			if n.Stats.BornPackets != n.Stats.ConsumedPackets {
				t.Fatalf("born %d != consumed %d", n.Stats.BornPackets, n.Stats.ConsumedPackets)
			}
			if err := n.CheckQuiescent(); err != nil {
				t.Fatalf("resource audit: %v", err)
			}
		})
	}
}

// TestClosedLoopGating: the engine must not run open-loop. In a ring
// allreduce only the dependency-free step-0 sends may be born before any
// message is consumed, so at every instant the in-flight packet count is
// bounded by the rank count (plus barrier-free: step s>0 needs step s-1
// consumed at the sender).
func TestClosedLoopGating(t *testing.T) {
	n := newNet(t, network.KernelActive)
	ranks := len(n.Topo.Cores())
	prog, err := workload.RingAllReduce(ranks, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000 && !eng.Done(); i++ {
		eng.Tick(n.Cycle())
		if got := n.InFlight(); got > ranks {
			t.Fatalf("cycle %d: %d packets in flight exceeds the closed-loop bound %d", n.Cycle(), got, ranks)
		}
		n.Step()
	}
}

// TestComputeGapDelaysInjection: a training step's compute phase must
// keep the network silent for the gap length.
func TestComputeGapDelaysInjection(t *testing.T) {
	n := newNet(t, network.KernelActive)
	prog, err := workload.TrainingStep(len(n.Topo.Cores()), 5, 300)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		eng.Tick(n.Cycle())
		n.Step()
	}
	if n.Stats.BornPackets != 0 {
		t.Fatalf("%d packets born during the 300-cycle compute gap", n.Stats.BornPackets)
	}
	for i := 0; i < 50; i++ {
		eng.Tick(n.Cycle())
		n.Step()
	}
	if n.Stats.BornPackets == 0 {
		t.Fatal("no packets born after the compute gap elapsed")
	}
}

// TestIterationRestart: Iterations > 1 repeats the program; each
// iteration delivers the full message count and completion cycles are
// strictly increasing.
func TestIterationRestart(t *testing.T) {
	n := newNet(t, network.KernelActive)
	prog, err := workload.TrainingStep(len(n.Topo.Cores()), 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		t.Fatal(err)
	}
	eng.Iterations = 3
	if err := eng.Run(400000); err != nil {
		t.Fatal(err)
	}
	iters := eng.IterationsDone()
	if len(iters) != 3 {
		t.Fatalf("%d iterations recorded, want 3", len(iters))
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] <= iters[i-1] {
			t.Fatalf("iteration %d completed at %d, not after %d", i, iters[i], iters[i-1])
		}
	}
	if eng.MessagesDelivered != 3*uint64(prog.Messages()) {
		t.Fatalf("delivered %d, want %d", eng.MessagesDelivered, 3*prog.Messages())
	}
}

// TestEngineKernelDeterminism: a closed-loop run must finish at the same
// cycle with the same stats under all three kernels — the workload layer
// must not break the kernels' bit-identity contract.
func TestEngineKernelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	type outcome struct {
		finish    sim.Cycle
		delivered uint64
		stats     network.Stats
	}
	run := func(kernel string) outcome {
		eng, n := runSpec(t, kernel, "ring_allreduce", 400000)
		return outcome{finish: eng.FinishCycle(), delivered: eng.MessagesDelivered, stats: n.Stats}
	}
	ref := run(network.KernelActive)
	for _, kernel := range []string{network.KernelNaive, network.KernelParallel} {
		got := run(kernel)
		if got != ref {
			t.Fatalf("kernel %s diverges from active:\n%+v\nvs\n%+v", kernel, got, ref)
		}
	}
}

// TestEngineRankMismatch: a program built for the wrong rank count must
// be rejected, not mis-mapped onto the cores.
func TestEngineRankMismatch(t *testing.T) {
	n := newNet(t, network.KernelActive)
	prog, err := workload.RingAllReduce(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.NewEngine(n, prog); err == nil {
		t.Fatal("8-rank program accepted on a 64-core system")
	}
}

// TestRunTimeoutDiagnostic: an unfinished run reports progress, not a
// bare failure.
func TestRunTimeoutDiagnostic(t *testing.T) {
	n := newNet(t, network.KernelActive)
	prog, err := workload.RingAllReduce(len(n.Topo.Cores()), 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Run(20) // far too few cycles
	if err == nil {
		t.Fatal("a 20-cycle budget cannot complete a 64-rank allreduce")
	}
	if !strings.Contains(err.Error(), "ops fired") {
		t.Fatalf("error lacks op progress: %v", err)
	}
}

// TestValidateRejects: table-driven malformed programs.
func TestValidateRejects(t *testing.T) {
	data := func(to, tag int) workload.Send {
		return workload.Send{To: to, Tag: tag, Flits: 5, VNet: message.VNetResponse, Class: message.ClassSyntheticData}
	}
	cases := []struct {
		name string
		prog workload.Program
		want string
	}{
		{"too_few_ranks", workload.Program{Name: "x", Ops: make([][]workload.Op, 1)}, "at least 2 ranks"},
		{"self_send", workload.Program{Name: "x", NumTags: 1, TagDst: []int{0},
			Ops: [][]workload.Op{{{Sends: []workload.Send{data(0, 0)}}}, {}}}, "self-send"},
		{"unsent_tag", workload.Program{Name: "x", NumTags: 1, TagDst: []int{1},
			Ops: [][]workload.Op{{}, {{Wait: []int{0}}}}}, "sent 0 times"},
		{"unwaited_tag", workload.Program{Name: "x", NumTags: 1, TagDst: []int{1},
			Ops: [][]workload.Op{{{Sends: []workload.Send{data(1, 0)}}}, {}}}, "waited on 0 times"},
		{"wrong_waiter", workload.Program{Name: "x", NumTags: 1, TagDst: []int{1},
			Ops: [][]workload.Op{{{Sends: []workload.Send{data(1, 0)}}, {Wait: []int{0}}}, {}}}, "destined for rank"},
		{"zero_flits", workload.Program{Name: "x", NumTags: 1, TagDst: []int{1},
			Ops: [][]workload.Op{{{Sends: []workload.Send{{To: 1, Tag: 0, Flits: 0, VNet: message.VNetResponse}}}},
				{{Wait: []int{0}}}}}, "flits"},
		{"dependency_cycle", workload.Program{Name: "x", NumTags: 2, TagDst: []int{1, 0},
			Ops: [][]workload.Op{
				{{Wait: []int{1}, Sends: []workload.Send{data(1, 0)}}},
				{{Wait: []int{0}, Sends: []workload.Send{data(0, 1)}}},
			}}, "dependency cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.prog.Validate()
			if err == nil {
				t.Fatal("malformed program validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseSpec: syntax acceptance and rejection.
func TestParseSpec(t *testing.T) {
	for _, name := range workload.Names() {
		if _, err := workload.ParseSpec(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	s, err := workload.ParseSpec("param_server:servers=8,iters=3,flits=2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Servers != 8 || s.Iters != 3 || s.Flits != 2 {
		t.Fatalf("options not applied: %+v", s)
	}
	for _, bad := range []string{
		"nope", "ring_allreduce:wat=1", "ring_allreduce:flits", "ring_allreduce:flits=x",
		"ring_allreduce:flits=0", "ring_allreduce:flits=99999", "ring_allreduce:iters=0",
		"param_server:servers=0", "broadcast:root=-1",
	} {
		s, err := workload.ParseSpec(bad)
		if err == nil {
			// Knob errors that depend on rank count surface at Build.
			if _, berr := s.Build(64); berr == nil {
				t.Fatalf("spec %q accepted", bad)
			}
		}
	}
	// An option the named workload never reads is refused, naming both.
	for _, bad := range []string{
		"tree_allreduce:root=3", "ring_allreduce:servers=2", "broadcast:gap=10", "training_step:root=1",
	} {
		name, opt, _ := strings.Cut(bad, ":")
		key, _, _ := strings.Cut(opt, "=")
		if _, err := workload.ParseSpec(bad); err == nil || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), name) {
			t.Errorf("spec %q: err %v, want one naming %s and %s", bad, err, key, name)
		}
	}
}
