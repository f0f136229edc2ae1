package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultOutputPinned pins the demonstration's whole output at its
// default flags: the wedge, the extracted dependency cycle with its upward
// packet, the occupancy maps and UPP's recovery counts. The deadlock it
// shows is the dynamic form of the theorem routing's
// TestUpwardDependencyBreaksEveryCycle checks statically, so a change to
// the network, a scheme or the cycle search that moves it shows up here.
func TestDefaultOutputPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/default.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from testdata/default.txt:\n%s", out.String())
	}
	if errb.Len() != 0 {
		t.Fatalf("stderr not empty: %s", errb.String())
	}
}

// TestBadFlag: an unknown flag exits 2 naming it, before any simulation.
func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 || !bytes.Contains(errb.Bytes(), []byte("bogus")) || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
}
