package faults

import (
	"reflect"
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// TestSignalFateDeterminism: fates are pure functions of the arguments —
// same plan, same (kind, popup, hop, cycle) → same verdict, in any query
// order, from independently-constructed injectors.
func TestSignalFateDeterminism(t *testing.T) {
	topo := testTopo(t)
	plan, err := ParseSpec(topo, "seed=42,dropreq=0.3,dropack=0.2,dropstop=0.25,delayprob=0.2,delaymax=6")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	mk := func() *Injector {
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		in, err := NewInjector(n, plan)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		return in
	}
	a, b := mk(), mk()
	kinds := []network.SignalKind{network.SignalReq, network.SignalAck, network.SignalStop}
	var dropped, delayed int
	for popup := uint64(1); popup <= 50; popup++ {
		for hop := 1; hop <= 4; hop++ {
			for cyc := sim.Cycle(0); cyc < 40; cyc += 7 {
				for _, k := range kinds {
					fa := a.SignalFate(k, popup, hop, cyc)
					// Query b in a scrambled arg order elsewhere first to
					// prove statelessness, then with the same args.
					b.SignalFate(kinds[(int(popup)+hop)%3], popup*31, hop+1, cyc+13)
					fb := b.SignalFate(k, popup, hop, cyc)
					if fa != fb {
						t.Fatalf("fate mismatch for (%d,%d,%d,%d): %+v vs %+v", k, popup, hop, cyc, fa, fb)
					}
					if fa.Drop {
						dropped++
					}
					if fa.Delay > 0 {
						delayed++
					}
				}
			}
		}
	}
	if dropped == 0 || delayed == 0 {
		t.Fatalf("want both drops and delays at these probabilities, got dropped=%d delayed=%d", dropped, delayed)
	}
}

// TestGenerateReproducibleAndMeshOnly: same seed → identical plan; flaps
// never target vertical links; windows on one link never overlap.
func TestGenerateReproducibleAndMeshOnly(t *testing.T) {
	topo := testTopo(t)
	parse := func(spec string) Plan {
		t.Helper()
		p, err := ParseSpec(topo, spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		return p
	}
	p1 := parse("seed=99,flaps=8,stalls=4,dropreq=0.1")
	p2 := parse("seed=99,flaps=8,stalls=4,dropreq=0.1")
	if !reflect.DeepEqual(p1, p2) || len(p1.Flaps) != 8 || len(p1.Stalls) != 4 {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", p1, p2)
	}
	for i, fl := range p1.Flaps {
		if l := topo.Links[fl.Link]; l.Vertical {
			t.Fatalf("flap %d targets vertical link %d", i, l.ID)
		}
	}
	p3 := parse("seed=100,flaps=8,stalls=4,dropreq=0.1")
	if reflect.DeepEqual(p1.Flaps, p3.Flaps) && reflect.DeepEqual(p1.Stalls, p3.Stalls) {
		t.Fatalf("different seeds produced identical windows: %+v", p1)
	}
	// Overlap check per link.
	type win struct{ s, e sim.Cycle }
	byLink := map[int][]win{}
	for _, fl := range p1.Flaps {
		for _, w := range byLink[fl.Link] {
			if fl.Start < w.e && w.s < fl.End {
				t.Fatalf("overlapping flap windows on link %d: [%d,%d) and [%d,%d)", fl.Link, w.s, w.e, fl.Start, fl.End)
			}
		}
		byLink[fl.Link] = append(byLink[fl.Link], win{fl.Start, fl.End})
	}
}

// TestParseSpec: round-trips the documented keys and rejects junk.
func TestParseSpec(t *testing.T) {
	topo := testTopo(t)
	plan, err := ParseSpec(topo, "seed=7,flaps=3,flapdur=200,stalls=2,drop=0.2,delayprob=0.1,delaymax=5,start=50")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if plan.Seed != 7 || len(plan.Flaps) != 3 || len(plan.Stalls) != 2 {
		t.Fatalf("unexpected plan: %+v", plan)
	}
	for _, k := range []network.SignalKind{network.SignalReq, network.SignalAck, network.SignalStop} {
		if plan.Drop[k] != 0.2 {
			t.Fatalf("drop shorthand did not apply to kind %d: %v", k, plan.Drop)
		}
	}
	if plan.DelayProb != 0.1 || plan.DelayMax != 5 {
		t.Fatalf("delay knobs lost: %+v", plan)
	}
	if plan.Flaps[0].Start < 50 {
		t.Fatalf("start=50 ignored: %+v", plan.Flaps[0])
	}
	// dropreq alone must not touch the other kinds.
	p2, err := ParseSpec(topo, "dropreq=0.4")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if p2.Drop[network.SignalReq] != 0.4 || p2.Drop[network.SignalAck] != 0 || p2.Drop[network.SignalStop] != 0 {
		t.Fatalf("dropreq leaked: %v", p2.Drop)
	}
	// Each bad spec fails with an error naming the offending key.
	for _, bad := range []struct{ spec, key string }{
		{"bogus=1", "bogus"},
		{"flaps", "flaps"},
		{"flaps=-1", "flaps"},
		{"drop=1.5", "drop"},
		{"drop=x", "drop"},
		// A count from command-line input is capped: a billion windows
		// would be a billion appends and a per-cycle scan of each.
		{"flaps=1000000000", "flaps"},
		{"stalls=10001", "stalls"},
		// i*every past the int64 range would wrap to windows before cycle
		// 0, which inject nothing.
		{"flaps=3,flapevery=4611686018427387904", "flapevery"},
		{"stalls=2,start=9223372036854775000", "start"},
		{"mode=epoch", "mode"},
		{"flaps=2,mode=auto", "mode"},
		{"kill=3@500,mode=fast", "mode"},
	} {
		if _, err := ParseSpec(topo, bad.spec); err == nil || !strings.Contains(err.Error(), bad.key) {
			t.Fatalf("ParseSpec(%q) = %v, want an error naming %s", bad.spec, err, bad.key)
		}
	}
}

// TestAttachValidation: vertical links, out-of-range links/nodes and
// empty windows are rejected by NewInjector, which reconfig.Attach runs
// before it installs anything.
func TestAttachValidation(t *testing.T) {
	topo := testTopo(t)
	var vertical int = -1
	for _, l := range topo.Links {
		if l.Vertical {
			vertical = l.ID
			break
		}
	}
	if vertical < 0 {
		t.Fatal("baseline topology has no vertical link?")
	}
	cases := []Plan{
		{Flaps: []LinkFlap{{Link: vertical, Start: 0, End: 10}}},
		{Flaps: []LinkFlap{{Link: len(topo.Links), Start: 0, End: 10}}},
		{Flaps: []LinkFlap{{Link: 0, Start: 10, End: 10}}},
		{Stalls: []EjectStall{{Node: topology.NodeID(topo.NumNodes()), Start: 0, End: 10}}},
		{Stalls: []EjectStall{{Node: 0, Start: 5, End: 5}}},
	}
	for i, plan := range cases {
		n := network.MustNew(topo, network.DefaultConfig(), network.None{})
		if _, err := NewInjector(n, plan); err == nil {
			t.Fatalf("case %d: NewInjector should reject %+v", i, plan)
		}
	}
}

// TestFlapWindowsApplied: BeginCycle raises and clears Link.Down exactly
// at window edges and counts each outage once.
func TestFlapWindowsApplied(t *testing.T) {
	topo := testTopo(t)
	var mesh *topology.Link
	for _, l := range topo.Links {
		if !l.Vertical {
			mesh = l
			break
		}
	}
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	plan := Plan{Flaps: []LinkFlap{{Link: mesh.ID, Start: 10, End: 20}, {Link: mesh.ID, Start: 30, End: 35}}}
	in, err := NewInjector(n, plan)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	for c := sim.Cycle(0); c < 50; c++ {
		in.BeginCycle(c)
		want := (c >= 10 && c < 20) || (c >= 30 && c < 35)
		if mesh.Down != want {
			t.Fatalf("cycle %d: Down=%v want %v", c, mesh.Down, want)
		}
	}
	if n.Stats.LinkFlaps != 2 {
		t.Fatalf("LinkFlaps=%d want 2", n.Stats.LinkFlaps)
	}
}

// TestParseSpecRejectsDegenerateWindows: parameter combinations whose
// generated windows collapse (end not after start) are spec errors, not
// silent no-op faults — the historical bug was flapevery=1 clamping the
// flap duration to zero and injecting nothing.
func TestParseSpecRejectsDegenerateWindows(t *testing.T) {
	topo := testTopo(t)
	cases := []struct {
		name, spec string
	}{
		{"flap window collapses", "flaps=1,flapevery=1"},
		{"flap window collapses multi", "flaps=3,flapevery=1,flapdur=700"},
		{"stall window collapses", "stalls=1,stallevery=1"},
		{"stall window collapses multi", "stalls=2,stallevery=1,stalldur=99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(topo, tc.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) should fail", tc.spec)
			}
			if !strings.Contains(err.Error(), "want start<end") {
				t.Fatalf("ParseSpec(%q) error %q does not say \"want start<end\"", tc.spec, err)
			}
		})
	}
	// The boundary case that must still work: flapevery=2 gives dur 1.
	if _, err := ParseSpec(topo, "flaps=1,flapevery=2"); err != nil {
		t.Fatalf("ParseSpec(flapevery=2): %v", err)
	}
}

// TestParseSpecPersistentEvents: kill/add/killchiplet parse into the
// persistent-event list in batch order, mode= rides along, and bad forms
// are rejected.
func TestParseSpecPersistentEvents(t *testing.T) {
	topo := testTopo(t)
	plan, err := ParseSpec(topo, "add=3@2000,killchiplet=1@900,kill=7@500,kill=3@500,mode=epoch")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := []Event{
		{Cycle: 500, Kind: KillLink, Target: 3},
		{Cycle: 500, Kind: KillLink, Target: 7},
		{Cycle: 900, Kind: KillChiplet, Target: 1},
		{Cycle: 2000, Kind: AddLink, Target: 3},
	}
	if !reflect.DeepEqual(plan.Events, want) {
		t.Fatalf("events %+v, want %+v in batch order", plan.Events, want)
	}
	if !plan.Persistent() || plan.Mode != ModeEpoch {
		t.Fatalf("plan with persistent events: Persistent=%v Mode=%d", plan.Persistent(), plan.Mode)
	}
	for _, bad := range []string{"kill=3", "kill=@5", "kill=3@", "kill=-1@5", "kill=3@-5", "add=x@5", "killchiplet=1@y"} {
		if _, err := ParseSpec(topo, bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}
