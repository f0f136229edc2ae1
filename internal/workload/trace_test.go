package workload_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/workload"
)

// TestTraceRoundTrip: Write then Read reproduces the trace exactly.
func TestTraceRoundTrip(t *testing.T) {
	rec := workload.NewTraceRecorder(8)
	rec.Record(3, 0, 1, message.VNetResponse, message.ClassSyntheticData, 5)
	rec.Record(3, 2, 5, message.VNetRequest, message.ClassSyntheticCtrl, 1)
	rec.Record(900, 7, 0, message.VNetForward, message.ClassSyntheticCtrl, 1)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Trace()
	if got.Ranks != want.Ranks || len(got.Records) != len(want.Records) {
		t.Fatalf("shape mismatch: %+v vs %+v", got, want)
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestWriteTraceRejects: the writer refuses traces the reader would
// refuse, so a recorded file is always loadable.
func TestWriteTraceRejects(t *testing.T) {
	rec := func(c sim.Cycle, src, dst, flits int) workload.TraceRecord {
		return workload.TraceRecord{Cycle: c, Src: src, Dst: dst,
			VNet: message.VNetResponse, Class: message.ClassSyntheticData, Flits: flits}
	}
	cases := []struct {
		name  string
		trace workload.Trace
		want  string
	}{
		{"one_rank", workload.Trace{Ranks: 1}, "rank count"},
		{"decreasing_cycles", workload.Trace{Ranks: 4,
			Records: []workload.TraceRecord{rec(10, 0, 1, 5), rec(9, 1, 2, 5)}}, "precedes"},
		{"src_range", workload.Trace{Ranks: 4,
			Records: []workload.TraceRecord{rec(0, 4, 1, 5)}}, "src rank"},
		{"self_send", workload.Trace{Ranks: 4,
			Records: []workload.TraceRecord{rec(0, 2, 2, 5)}}, "self-send"},
		{"flit_range", workload.Trace{Ranks: 4,
			Records: []workload.TraceRecord{rec(0, 0, 1, 0)}}, "flit count"},
		{"cycle_range", workload.Trace{Ranks: 4,
			Records: []workload.TraceRecord{rec(workload.MaxTraceCycle, 0, 1, 5), rec(workload.MaxTraceCycle+1, 1, 2, 5)}}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := workload.WriteTrace(&buf, &tc.trace)
			if err == nil {
				t.Fatal("invalid trace written")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadTraceRejects: hand-built malformed byte streams error with a
// diagnostic (the fuzz target covers the long tail; these pin the
// messages).
func TestReadTraceRejects(t *testing.T) {
	valid := func() []byte {
		rec := workload.NewTraceRecorder(4)
		rec.Record(1, 0, 1, message.VNetResponse, message.ClassSyntheticData, 5)
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "short header"},
		{"bad_magic", []byte("NOPE\x01"), "bad magic"},
		{"bad_version", []byte("UPWT\x07"), "unsupported version"},
		{"no_ranks", []byte("UPWT\x01"), "truncated rank count"},
		{"one_rank", append([]byte("UPWT\x01\x01"), 0), "below 2"},
		{"truncated_record", valid[:len(valid)-2], "truncated"},
		{"trailing_bytes", append(append([]byte{}, valid...), 0xFF), "trailing bytes"},
		// Each delta is within bounds, but their sum is past MaxTraceCycle.
		{"cycle_sum", func() []byte {
			b := []byte("UPWT\x01\x04\x02")
			for _, delta := range []uint64{workload.MaxTraceCycle, 1} {
				b = binary.AppendUvarint(b, delta)
				b = append(b, 0, 1, byte(message.VNetResponse), byte(message.ClassSyntheticData), 5)
			}
			return b
		}(), "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := workload.ReadTrace(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed trace parsed")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReplayMatchesLiveRun is the acceptance criterion for the trace
// frontend: record a live closed-loop collective run, then replay the
// trace open-loop on a fresh identical network for the same number of
// cycles — Stats and the final cycle must be bit-identical, because the
// network sees the identical Enqueue sequence.
func TestReplayMatchesLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	// Live run, recorded.
	live := newNet(t, network.KernelActive)
	spec, err := workload.ParseSpec("training_step:gap=100,iters=2")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(len(live.Topo.Cores()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := workload.NewEngine(live, prog)
	if err != nil {
		t.Fatal(err)
	}
	eng.Iterations = spec.EngineIterations()
	rec := workload.NewTraceRecorder(len(live.Topo.Cores()))
	eng.SetRecorder(rec)
	if err := eng.Run(400000); err != nil {
		t.Fatal(err)
	}
	// Run the live network to a fixed horizon past completion so the
	// replay can be driven to exactly the same cycle.
	horizon := int(eng.FinishCycle()) + 2000
	for int(live.Cycle()) < horizon {
		live.Step()
	}

	// Serialize, reload, replay on a fresh network.
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Records) != 2*prog.Messages() {
		t.Fatalf("trace has %d records, want %d", len(trace.Records), 2*prog.Messages())
	}
	replay := newNet(t, network.KernelActive)
	rp, err := workload.NewReplayer(replay, trace)
	if err != nil {
		t.Fatal(err)
	}
	rp.Run(horizon)
	if !rp.Done() {
		t.Fatal("replay did not inject every record")
	}
	if replay.Cycle() != live.Cycle() {
		t.Fatalf("final cycle %d != live %d", replay.Cycle(), live.Cycle())
	}
	if replay.Stats != live.Stats {
		t.Fatalf("stats diverge:\nlive:   %+v\nreplay: %+v", live.Stats, replay.Stats)
	}
}

// TestReplayerRankMismatch: a trace recorded over a different system
// size is rejected up front.
func TestReplayerRankMismatch(t *testing.T) {
	n := newNet(t, network.KernelActive)
	if _, err := workload.NewReplayer(n, &workload.Trace{Ranks: 8}); err == nil {
		t.Fatal("8-rank trace accepted on a 64-core system")
	}
}
