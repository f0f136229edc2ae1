package main

import (
	"bytes"
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
