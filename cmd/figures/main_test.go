package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain runs every test with the result cache off, so a table is
// simulated under the flags it is given, not read from a developer's
// UPP_CACHE_DIR.
func TestMain(m *testing.M) {
	os.Unsetenv("UPP_CACHE_DIR")
	m.Run()
}

func names(t *testing.T, list string) []string {
	t.Helper()
	picked, err := selectExperiments(list)
	if err != nil {
		t.Fatalf("-exp %s: %v", list, err)
	}
	var out []string
	for _, e := range picked {
		out = append(out, e.ID)
	}
	return out
}

// TestUnknownExperimentRejected: a name -exp does not know fails the whole
// command with exit 2, naming it and the known ones, before anything runs
// — alone, or mixed with names it does know.
func TestUnknownExperimentRejected(t *testing.T) {
	for list, unknown := range map[string]string{"fig77": "fig77", "table1,fig77": "fig77", "nope,table1,fig77": "fig77, nope"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", list, "-q"}, &stdout, &stderr); code != 2 {
			t.Errorf("-exp %s: exit %d, want 2", list, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s printed tables despite the unknown name:\n%s", list, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown experiment "+unknown+" (known: ") ||
			!strings.Contains(msg, "tail_latency") || !strings.Contains(msg, "fig12") {
			t.Errorf("-exp %s: stderr %q does not name the unknown experiment and the known ones", list, msg)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "", "-q"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "nothing selected") {
		t.Errorf("empty -exp: exit %d, stderr %q", code, stderr.String())
	}
}

// TestKnownExperimentRuns: the table still dispatches — an instant
// experiment prints its table and exits 0.
func TestKnownExperimentRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1, fig14", "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table I") {
		t.Fatalf("Table I missing from the output:\n%s", stdout.String())
	}
}

// TestSelection: the three full-system figures select their shared run
// once however many are named, "all" is everything but the opt-in scale
// sweep, and the output order is the table's whatever the list's.
func TestSelection(t *testing.T) {
	for _, list := range []string{"fig8", "fig12", "fig15", "fullsystem", "fig15,fig8,fullsystem,fig12"} {
		if got := names(t, list); !slices.Equal(got, []string{"fullsystem"}) {
			t.Errorf("-exp %s selects %v, want fullsystem once", list, got)
		}
	}
	all := names(t, "all")
	if slices.Contains(all, "scale") || len(all) != len(entries)-1 {
		t.Errorf("-exp all selects %v: want every experiment but scale", all)
	}
	if got := names(t, "all,scale"); len(got) != len(entries) {
		t.Errorf("-exp all,scale selects %v, want everything", got)
	}
	if got := names(t, "fig7,table1"); !slices.Equal(got, []string{"table1", "fig7"}) {
		t.Errorf("-exp fig7,table1 selects %v, want table order", got)
	}
}

// TestBadExecutionFlagsRejected: an unknown -kernel or -router, or a
// negative -shards or -jobs, fails the command with exit 2 and a message naming
// the value before any table is printed — even when the selected
// experiment builds no network.
func TestBadExecutionFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{{"-kernel", "bogus"}, {"-router", "banyan"}, {"-shards", "-1"}, {"-jobs", "-3"}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "table1", "-q", tc.flag, tc.value}, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.value) {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q: want exit 2 naming %s and no table", tc.flag, tc.value, code, stdout.String(), stderr.String(), tc.value)
		}
	}
}

// TestExecutionFlagsReachRuns: a table is the same under every -kernel
// and -shards, and -router, which picks the machine, changes it: the
// flags reach the runs (TestAssembleAppliesHost in internal/experiments
// has the pool's precedence).
func TestExecutionFlagsReachRuns(t *testing.T) {
	table := func(flags ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-exp", "load_balance", "-q"}, flags...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", flags, code, stderr.String())
		}
		return stdout.String()
	}
	want := table()
	for _, flags := range [][]string{{"-kernel", "naive"}, {"-kernel", "parallel", "-shards", "2"}} {
		if got := table(flags...); got != want {
			t.Errorf("%v changed the table:\n%s\nvs active\n%s", flags, got, want)
		}
	}
	if table("-router", "voq") == want {
		t.Error("-router voq printed the iq table: the flag does not reach the runs")
	}
}
