package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// uppsim runs the CLI in-process with UPP_KERNEL set in the process
// environment, which is where internal/experiments reads it.
func uppsim(t *testing.T, kernel string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Setenv("UPP_KERNEL", kernel)
	var out, errb bytes.Buffer
	code = run(args, func(string) string { return "" }, &out, &errb)
	return code, out.String(), errb.String()
}

// TestKernelEnvEndToEnd is the proof that moving host resolution out of
// the libraries kept the environment interface alive: through the CLI,
// UPP_KERNEL still selects the kernel, and all three kernels print the
// same statistics on both an input-queued and an output-queued router, at
// a load where UPP has popups to run.
func TestKernelEnvEndToEnd(t *testing.T) {
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

// TestBadKernelEnvRejected: a malformed host variable fails the run with
// a message that names it, not a silent fallback.
func TestBadKernelEnvRejected(t *testing.T) {
	code, stdout, stderr := uppsim(t, "bogus", "-warmup", "10", "-cycles", "10")
	if code == 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q: want a non-zero exit and no result", code, stdout)
	}
	if !strings.Contains(stderr, "UPP_KERNEL") || !strings.Contains(stderr, "bogus") {
		t.Fatalf("stderr %q does not name UPP_KERNEL and the bad value", stderr)
	}
}

// TestFaultPlanDefaultFromEnv: -fault-plan defaults to $UPP_FAULTS, and a
// plan that cannot be parsed fails the run.
func TestFaultPlanDefaultFromEnv(t *testing.T) {
	var out, errb bytes.Buffer
	getenv := func(k string) string {
		if k == "UPP_FAULTS" {
			return "nonsense=1"
		}
		return ""
	}
	if code := run([]string{"-warmup", "10", "-cycles", "10"}, getenv, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, errb.String())
	}
	if !strings.Contains(errb.String(), "nonsense") {
		t.Fatalf("stderr %q does not mention the bad plan key", errb.String())
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
