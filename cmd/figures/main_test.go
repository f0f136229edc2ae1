package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func names(t *testing.T, list string) []string {
	t.Helper()
	picked, err := selectExperiments(list)
	if err != nil {
		t.Fatalf("-exp %s: %v", list, err)
	}
	var out []string
	for _, i := range picked {
		out = append(out, registry[i].name)
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
	if slices.Contains(all, "scale") || len(all) != len(registry)-1 {
		t.Errorf("-exp all selects %v: want every experiment but scale", all)
	}
	if got := names(t, "all,scale"); len(got) != len(registry) {
		t.Errorf("-exp all,scale selects %v, want everything", got)
	}
	if got := names(t, "fig7,table1"); !slices.Equal(got, []string{"table1", "fig7"}) {
		t.Errorf("-exp fig7,table1 selects %v, want table order", got)
	}
}
