package faults

import (
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
	plan := Generate(topo, 42, GenConfig{DropReq: 0.3, DropAck: 0.2, DropStop: 0.25, DelayProb: 0.2, DelayMax: 6})
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
	g := GenConfig{Flaps: 8, Stalls: 4, DropReq: 0.1}
	p1 := Generate(topo, 99, g)
	p2 := Generate(topo, 99, g)
	if p1.String() != p2.String() || len(p1.Flaps) != len(p2.Flaps) {
		t.Fatalf("same seed produced different plans:\n%s\n%s", p1, p2)
	}
	for i := range p1.Flaps {
		if p1.Flaps[i] != p2.Flaps[i] {
			t.Fatalf("flap %d differs: %+v vs %+v", i, p1.Flaps[i], p2.Flaps[i])
		}
		l := topo.Links[p1.Flaps[i].Link]
		if l.Vertical {
			t.Fatalf("flap %d targets vertical link %d", i, l.ID)
		}
	}
	p3 := Generate(topo, 100, g)
	if p1.String() == p3.String() {
		t.Fatalf("different seeds produced identical plans: %s", p1)
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
		t.Fatalf("unexpected plan: %s", plan)
	}
	for _, k := range []network.SignalKind{network.SignalReq, network.SignalAck, network.SignalStop} {
		if plan.Drop[k] != 0.2 {
			t.Fatalf("drop shorthand did not apply to kind %d: %v", k, plan.Drop)
		}
	}
	if plan.DelayProb != 0.1 || plan.DelayMax != 5 {
		t.Fatalf("delay knobs lost: %s", plan)
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
	for _, bad := range []string{"bogus=1", "flaps", "flaps=-1", "drop=1.5", "drop=x"} {
		if _, err := ParseSpec(topo, bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
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
// persistent-event lists, and bad forms are rejected.
func TestParseSpecPersistentEvents(t *testing.T) {
	topo := testTopo(t)
	plan, err := ParseSpec(topo, "kill=3@500,kill=7@500,add=3@2000,killchiplet=1@900")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(plan.Kills) != 2 || plan.Kills[0] != (LinkKill{Link: 3, Cycle: 500}) || plan.Kills[1] != (LinkKill{Link: 7, Cycle: 500}) {
		t.Fatalf("kills: %+v", plan.Kills)
	}
	if len(plan.Adds) != 1 || plan.Adds[0] != (LinkAdd{Link: 3, Cycle: 2000}) {
		t.Fatalf("adds: %+v", plan.Adds)
	}
	if len(plan.ChipletKills) != 1 || plan.ChipletKills[0] != (ChipletKill{Chiplet: 1, Cycle: 900}) {
		t.Fatalf("chiplet kills: %+v", plan.ChipletKills)
	}
	if !plan.Persistent() || plan.Empty() {
		t.Fatalf("plan with persistent events: Persistent=%v Empty=%v", plan.Persistent(), plan.Empty())
	}
	for _, bad := range []string{"kill=3", "kill=@5", "kill=3@", "kill=-1@5", "kill=3@-5", "add=x@5", "killchiplet=1@y"} {
		if _, err := ParseSpec(topo, bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}
