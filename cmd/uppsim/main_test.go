package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// uppsim runs the CLI in-process, under -kernel kernel unless kernel is
// empty.
func uppsim(t *testing.T, kernel string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	if kernel != "" {
		args = append([]string{"-kernel", kernel}, args...)
	}
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestKernelFlagEndToEnd: through the CLI, -kernel selects the kernel, and
// all three kernels print the same statistics on both an input-queued and
// an output-queued router, at a load where UPP has popups to run.
func TestKernelFlagEndToEnd(t *testing.T) {
	for _, arch := range []string{"iq", "oq"} {
		t.Run(arch, func(t *testing.T) {
			args := []string{"-scheme", "upp", "-router", arch, "-rate", "0.09", "-warmup", "500", "-cycles", "4000", "-json"}
			code, want, stderr := uppsim(t, "naive", args...)
			if code != 0 {
				t.Fatalf("naive kernel: exit %d: %s", code, stderr)
			}
			if !strings.Contains(want, `"Popups"`) || strings.Contains(want, `"Popups": 0,`) {
				t.Fatalf("run completed no popup, so it does not exercise recovery:\n%s", want)
			}
			for _, kernel := range []string{"active", "parallel"} {
				code, got, stderr := uppsim(t, kernel, args...)
				if code != 0 {
					t.Fatalf("%s kernel: exit %d: %s", kernel, code, stderr)
				}
				if got != want {
					t.Fatalf("%s kernel diverges from naive:\n%s\nvs\n%s", kernel, got, want)
				}
			}
		})
	}
}

// TestBadExecutionFlagsRejected: an unknown -kernel or a negative -shards
// fails the run, exit 1 and no result, with a message naming the value —
// also when the result cache holds the spec's Point, which leaves the
// kernel and shard count out of its key.
func TestBadExecutionFlagsRejected(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", t.TempDir())
	base := []string{"-warmup", "10", "-cycles", "10"}
	if code, _, stderr := uppsim(t, "", base...); code != 0 {
		t.Fatalf("filling the cache: exit %d: %s", code, stderr)
	}
	for _, tc := range []struct{ flag, value string }{{"-kernel", "bogus"}, {"-shards", "-1"}} {
		code, stdout, stderr := uppsim(t, "", append([]string{tc.flag, tc.value}, base...)...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.value) {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q: want exit 1 naming %s", tc.flag, tc.value, code, stdout, stderr, tc.value)
		}
	}
}

// TestBadFaultPlanRejected: a -fault-plan that cannot be parsed fails the
// run, naming the bad key.
func TestBadFaultPlanRejected(t *testing.T) {
	code, stdout, stderr := uppsim(t, "", "-fault-plan", "nonsense=1", "-warmup", "10", "-cycles", "10")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "nonsense") {
		t.Fatalf("exit %d, stdout %q, stderr %q: want exit 1 naming the bad plan key", code, stdout, stderr)
	}
}

// TestRestoreUnderEveryKernel: -kernel and -shards are the flags -restore
// takes besides -json, and a checkpoint resumed under any kernel prints
// the uninterrupted run's statistics.
func TestRestoreUnderEveryKernel(t *testing.T) {
	f := filepath.Join(t.TempDir(), "run.upwr")
	args := []string{"-rate", "0.12", "-warmup", "500", "-cycles", "2000", "-json"}
	code, want, stderr := uppsim(t, "", append(args, "-snapshot", f, "-at", "1005")...)
	if code != 0 {
		t.Fatalf("checkpointed run: exit %d: %s", code, stderr)
	}
	for _, flags := range [][]string{{"-kernel", "naive"}, {"-kernel", "parallel", "-shards", "2"}, {"-shards", "3"}} {
		code, got, stderr := uppsim(t, "", append([]string{"-restore", f, "-json"}, flags...)...)
		if code != 0 || got != want {
			t.Errorf("-restore %v: exit %d: %s\n%s\nvs uninterrupted\n%s", flags, code, stderr, got, want)
		}
	}
}

// TestMachineFlagsReachEverySource: the flags that describe the machine
// are not the rate-driven path's alone. Each must change what a -workload
// or -replay run prints, or be refused by name — never be ignored.
func TestMachineFlagsReachEverySource(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "a2a.trace")
	if code, _, stderr := uppsim(t, "", "-workload", "all_to_all", "-record", trace); code != 0 {
		t.Fatalf("recording the trace: exit %d: %s", code, stderr)
	}
	for _, tc := range []struct {
		name string
		base []string
		flag []string
	}{
		{"workload_faults", []string{"-workload", "ring_allreduce", "-json"}, []string{"-faults", "10"}},
		{"workload_adaptive", []string{"-workload", "ring_allreduce", "-json"}, []string{"-adaptive"}},
		// Multi-flit messages: cut-through has nothing to cut on the
		// all-reduce's single-flit chunks.
		{"workload_vct", []string{"-workload", "all_to_all:flits=5", "-json"}, []string{"-vct"}},
		{"workload_fault_plan", []string{"-workload", "all_to_all:flits=5", "-json"}, []string{"-fault-plan", "flaps=4,drop=0.2"}},
		{"workload_scale", []string{"-workload", "ring_allreduce", "-json"}, []string{"-scale", "small"}},
		{"replay_faults", []string{"-replay", trace}, []string{"-faults", "10"}},
		{"replay_vcs", []string{"-replay", trace}, []string{"-vcs", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, plain, stderr := uppsim(t, "", tc.base...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.base, code, stderr)
			}
			code, flagged, stderr := uppsim(t, "", append(tc.base, tc.flag...)...)
			if code != 0 {
				if !strings.Contains(stderr, tc.flag[0]) {
					t.Fatalf("%v failed without naming the flag: %s", tc.flag, stderr)
				}
				return
			}
			if flagged == plain {
				t.Fatalf("%v changed nothing:\n%s", tc.flag, plain)
			}
		})
	}
}

// TestScaleWorkloadKernelIdentical: a collective on a scale-out preset —
// a combination uppsim used to refuse — completes and prints the same
// bytes under every kernel.
func TestScaleWorkloadKernelIdentical(t *testing.T) {
	args := []string{"-scale", "small", "-workload", "ring_allreduce", "-json"}
	code, want, stderr := uppsim(t, "naive", args...)
	if code != 0 || !strings.Contains(want, `"Completed": true`) {
		t.Fatalf("naive kernel: exit %d: %s\n%s", code, stderr, want)
	}
	for _, kernel := range []string{"active", "parallel"} {
		if code, got, stderr := uppsim(t, kernel, args...); code != 0 || got != want {
			t.Fatalf("%s kernel: exit %d: %s\n%s\nvs naive\n%s", kernel, code, stderr, got, want)
		}
	}
}

// TestCoherenceWorkloadKernelIdentical: a full-system benchmark is a
// -workload like a collective: it completes and prints the same bytes
// under every kernel, and -record, which only a collective honours, fails
// the run naming it.
func TestCoherenceWorkloadKernelIdentical(t *testing.T) {
	args := []string{"-workload", "coherence:fft,scale=0.02", "-json"}
	code, want, stderr := uppsim(t, "naive", args...)
	if code != 0 || !strings.Contains(want, `"Completed": true`) {
		t.Fatalf("naive kernel: exit %d: %s\n%s", code, stderr, want)
	}
	for _, kernel := range []string{"active", "parallel"} {
		if code, got, stderr := uppsim(t, kernel, args...); code != 0 || got != want {
			t.Fatalf("%s kernel: exit %d: %s\n%s\nvs naive\n%s", kernel, code, stderr, got, want)
		}
	}
	code, _, stderr = uppsim(t, "", "-workload", "coherence:fft,scale=0.02", "-record", filepath.Join(t.TempDir(), "x.trace"))
	if code != 1 || !strings.Contains(stderr, "record") {
		t.Fatalf("-record of a coherence run: exit %d, stderr %q: want exit 1 naming record", code, stderr)
	}
}

// TestSourceFlagsRefusedElsewhere: a flag that configures one traffic
// source, given to a run with another, is an error that names it.
func TestSourceFlagsRefusedElsewhere(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "ring_allreduce", "-rate", "0.1"},
		{"-workload", "ring_allreduce", "-snapshot", "x.upwr"},
		{"-replay", "x.trace", "-json"},
		{"-rate", "0.1", "-record", "x.trace"},
		{"-restore", "x.upwr", "-vcs", "4"},
		{"-scale", "small", "-large"},
		{"-replay", "x.trace", "-workload", "ring_allreduce"},
	} {
		code, stdout, stderr := uppsim(t, "", args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, args[2]) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q: want exit 1 naming %s", args, code, stdout, stderr, args[2])
		}
	}
}

// TestNegativeFlagsRejected: a negative count or load fails the run, exit
// 1, naming the field — it is not read as the default that zero means.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-vcs", "-2"}, "VCsPerVNet"},
		{[]string{"-rate", "-1"}, "Rate"},
		{[]string{"-warmup", "-5"}, "Dur.Warmup"},
		{[]string{"-workload", "ring_allreduce", "-max-cycles", "-3"}, "MaxCycles"},
	} {
		code, stdout, stderr := uppsim(t, "", tc.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.field) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q: want exit 1 naming %s", tc.args, code, stdout, stderr, tc.field)
		}
	}
}

// TestSnapshotCycleOutOfRange: a -snapshot cycle past the schedule fails
// up front, exit 1, with an error naming the schedule, and leaves no
// checkpoint file behind for -restore to reject.
func TestSnapshotCycleOutOfRange(t *testing.T) {
	f := filepath.Join(t.TempDir(), "ckpt.upws")
	code, stdout, stderr := uppsim(t, "", "-snapshot", f, "-at", "1000000", "-warmup", "10", "-cycles", "10")
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q: want exit 1 and no result", code, stdout)
	}
	if !strings.Contains(stderr, "outside the run's schedule (0..20)") {
		t.Fatalf("stderr %q does not name the schedule", stderr)
	}
	if _, err := os.Stat(f); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file left behind (stat: %v)", err)
	}
}
