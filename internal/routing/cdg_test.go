package routing

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

// yxLocal routes Y-first then X — the classic counterexample to XY.
// Individually it is deadlock-free (dimension order), but its union with
// XY contains all four turn types and therefore a dependency cycle on
// any 2×2 mesh patch: the known-incompatible pair of the checker's
// contract.
type yxLocal struct{ topo *topology.Topology }

func (r yxLocal) NextPort(cur, dst topology.NodeID, _ *message.Packet) (topology.PortID, error) {
	cn := r.topo.Node(cur)
	dn := r.topo.Node(dst)
	var dir topology.Direction
	switch {
	case dn.Y > cn.Y:
		dir = topology.North
	case dn.Y < cn.Y:
		dir = topology.South
	case dn.X > cn.X:
		dir = topology.East
	case dn.X < cn.X:
		dir = topology.West
	default:
		return topology.LocalPort, nil
	}
	p := cn.PortTo(dir)
	if p == topology.InvalidPort {
		return topology.InvalidPort, fmt.Errorf("yx: no %s port at node %d", dir, cur)
	}
	return p, nil
}

// wfLocal is west-first minimal routing: move west first when the
// destination lies west, otherwise Y before east. Its routes avoid the
// N→W and S→W turns, as do XY's, so the XY∪wf union stays inside the
// west-first turn model and is provably acyclic: the known-compatible
// (but genuinely different) pair of the checker's contract.
type wfLocal struct{ topo *topology.Topology }

func (r wfLocal) NextPort(cur, dst topology.NodeID, _ *message.Packet) (topology.PortID, error) {
	cn := r.topo.Node(cur)
	dn := r.topo.Node(dst)
	var dir topology.Direction
	switch {
	case dn.X < cn.X:
		dir = topology.West
	case dn.Y > cn.Y:
		dir = topology.North
	case dn.Y < cn.Y:
		dir = topology.South
	case dn.X > cn.X:
		dir = topology.East
	default:
		return topology.LocalPort, nil
	}
	p := cn.PortTo(dir)
	if p == topology.InvalidPort {
		return topology.InvalidPort, fmt.Errorf("wf: no %s port at node %d", dir, cur)
	}
	return p, nil
}

// mustBuildCDG is BuildCDG under local with the static binding.
func mustBuildCDG(t *testing.T, topo *topology.Topology, local Local) *CDG {
	t.Helper()
	g, err := BuildCDG(NewHierarchical(topo, local), DefaultPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkWitness fails unless cyc is a cycle of g: every channel depends on
// the next, the last on the first, and no channel repeats.
func checkWitness(t *testing.T, g *CDG, cyc []int32) {
	t.Helper()
	if len(cyc) < 2 {
		t.Fatalf("witness cycle too short: %v", cyc)
	}
	seen := map[int32]bool{}
	for i, c := range cyc {
		if seen[c] {
			t.Fatalf("witness %v revisits channel %d before closing", cyc, c)
		}
		seen[c] = true
		// A link's two channels are each other's peers: c feeds next by
		// output Port[Peer[next]] when next's peer is at c's router.
		next := cyc[(i+1)%len(cyc)]
		if up := g.Peer[next]; g.Node[up] != g.Node[c] || g.Used[c]&(1<<g.Port[up]) == 0 {
			t.Fatalf("witness %v does not close: no dependency %d -> %d", cyc, c, next)
		}
	}
}

// uses reports whether channel c appears in a dependency of g, as its
// source or as its target.
func (g *CDG) uses(c int32) bool {
	up := g.Peer[c]
	return g.Used[c] != 0 || slices.ContainsFunc(g.Used[g.Base[g.Node[up]]:g.Base[g.Node[up]+1]], func(u uint32) bool {
		return u&(1<<g.Port[up]) != 0
	})
}

// TestBuildCDGAcyclicBaseline pins that the deadlock-free locals the
// simulator ships, and the two test fakes, give whole-system graphs that
// are acyclic once the upward dependencies are cut, on the baseline.
func TestBuildCDGAcyclicBaseline(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	ud, err := NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		local Local
	}{
		{"xy", NewXY(topo)},
		{"updown", ud},
		{"yx", yxLocal{topo}},
		{"westfirst", wfLocal{topo}},
	} {
		g := mustBuildCDG(t, topo, tc.local)
		if !slices.ContainsFunc(g.Used, func(u uint32) bool { return u != 0 }) {
			t.Fatalf("%s: CDG has no dependencies — the walk found no multi-hop routes", tc.name)
		}
		g.CutUpward()
		if cyc := g.FindCycle(); cyc != nil {
			t.Fatalf("%s: cyclic CDG after the upward cut: %v", tc.name, cyc)
		}
	}
}

// TestCompatibleUnionKnownCompatible: XY and west-first are different
// routing functions whose union stays within the west-first turn model —
// the checker must prove them compatible (drainless transition legal).
func TestCompatibleUnionKnownCompatible(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	xy := mustBuildCDG(t, topo, NewXY(topo))
	wf := mustBuildCDG(t, topo, wfLocal{topo})
	if slices.Equal(wf.Used, xy.Used) {
		t.Fatal("west-first collapsed to XY — the compatible pair is not a real test")
	}
	xy.Or(wf)
	xy.CutUpward()
	if cyc := xy.FindCycle(); cyc != nil {
		t.Fatalf("XY ∪ west-first reported incompatible, witness %v", cyc)
	}
}

// TestCompatibleUnionKnownIncompatible: XY and YX individually are
// acyclic but their union has all four turn types — the checker must
// find a cycle and return it as a witness.
func TestCompatibleUnionKnownIncompatible(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	xy := mustBuildCDG(t, topo, NewXY(topo))
	yx := mustBuildCDG(t, topo, yxLocal{topo})
	xy.Or(yx)
	xy.CutUpward()
	cyc := xy.FindCycle()
	if cyc == nil {
		t.Fatal("XY ∪ YX reported compatible — the checker missed the turn-model cycle")
	}
	checkWitness(t, xy, cyc)
}

// TestCDGUpDownSurvivesKill pins the reconfiguration path's actual
// check: up*/down* rebuilt after a persistent mesh-link failure must
// still produce a walkable graph, acyclic after the upward cut.
func TestCDGUpDownSurvivesKill(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	before, err := NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	gBefore := mustBuildCDG(t, topo, before)
	// Kill the first interposer mesh link whose removal keeps the layer
	// connected.
	var killed *topology.Link
	for _, l := range topo.Links {
		if l.Vertical || l.Faulty || topo.Node(l.A).Chiplet != topology.InterposerChiplet {
			continue
		}
		topo.SetFaulty(l, true)
		if _, err := NewUpDown(topo); err == nil {
			killed = l
			break
		}
		topo.SetFaulty(l, false)
	}
	if killed == nil {
		t.Fatal("no killable interposer mesh link found")
	}
	after, err := NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchical(topo, after)
	gAfter := mustBuildCDG(t, topo, after)
	// The dead link's channels must have vanished from the new graph.
	a, b := gAfter.Base[killed.A]+int32(killed.APort), gAfter.Base[killed.B]+int32(killed.BPort)
	if !gBefore.uses(a) && !gBefore.uses(b) {
		t.Fatalf("pre-kill CDG never used link %d — kill is not a real routing change", killed.ID)
	}
	if gAfter.uses(a) || gAfter.uses(b) {
		t.Fatalf("post-kill CDG still depends on killed link %d", killed.ID)
	}
	gAfter.CutUpward()
	if cyc := gAfter.FindCycle(); cyc != nil {
		t.Fatalf("post-kill up*/down* CDG cyclic after the upward cut: %v", cyc)
	}
	routes := 0
	nodes := topo.LayerNodes(topology.InterposerChiplet)
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			route, err := WalkRoute(h, DefaultPolicy{}, src, dst)
			if err != nil {
				t.Fatalf("WalkRoute %d->%d: %v", src, dst, err)
			}
			for _, x := range route {
				if topo.Node(x.Node).Ports[x.Out].Link == killed {
					t.Fatalf("route %v crosses killed link %d", route, killed.ID)
				}
			}
			routes++
		}
	}
	if routes == 0 {
		t.Fatal("walked no interposer routes")
	}
}

// TestUpwardDependencyBreaksEveryCycle checks the paper's Sec. IV-A
// theorem statically: every integration-induced deadlock contains an
// upward packet. On each system the whole-system graph is cyclic (Star's,
// whose chiplets meet the interposer once, is not), its witness cycle
// contains an upward dependency, and cutting the upward dependencies
// leaves it acyclic. The graph's mesh-to-mesh dependencies equal those of
// a walk over same-layer pairs only, because every within-layer segment
// of a cross-layer route is itself a same-layer route: the reason a
// reconfiguration's verdict does not depend on the binding policy.
func TestUpwardDependencyBreaksEveryCycle(t *testing.T) {
	system := func(name string) *topology.Topology {
		var topo *topology.Topology
		var err error
		switch name {
		case "baseline":
			topo, err = topology.Build(topology.BaselineConfig())
		case "large":
			topo, err = topology.Build(topology.LargeConfig())
		case "star":
			topo, err = topology.Build(topology.StarConfig())
		case "hetero":
			topo, err = topology.BuildHetero(topology.HeteroExampleConfig())
		case "scale_small":
			topo, err = topology.BuildScale(topology.ScaleSmallConfig())
		case "scale_large":
			topo, err = topology.BuildScale(topology.ScaleLargeConfig())
		}
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	type tc struct {
		sys, local, policy string
		acyclic            bool
	}
	var cases []tc
	for _, sys := range []string{"baseline", "large", "hetero", "star", "scale_small", "scale_large"} {
		for _, policy := range []string{"", "farthest", "single_boundary"} {
			cases = append(cases, tc{sys, "xy", policy, sys == "star"})
		}
	}
	for _, sys := range []string{"baseline", "large", "scale_small"} {
		cases = append(cases, tc{sys, "updown", "", false})
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s/%s", c.sys, c.local, cmp.Or(c.policy, "static")), func(t *testing.T) {
			if c.sys == "scale_large" && testing.Short() {
				t.Skip("2048 routers: skipped under -short")
			}
			topo := system(c.sys)
			var local Local = NewXY(topo)
			if c.local == "updown" {
				if _, err := topo.InjectFaultsPerLayer(2, 4321); err != nil {
					t.Fatal(err)
				}
				ud, err := NewUpDown(topo)
				if err != nil {
					t.Fatal(err)
				}
				local = ud
			}
			policy, err := BindingPolicy(c.policy)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHierarchical(topo, local)
			g, err := BuildCDG(h, policy)
			if err != nil {
				t.Fatal(err)
			}
			// mesh reports whether channel c is behind a mesh link.
			mesh := func(c int32) bool {
				l := topo.Node(g.Node[c]).Ports[g.Port[c]].Link
				return l != nil && !l.Vertical
			}
			cyc := g.FindCycle()
			switch {
			case c.acyclic && cyc != nil:
				t.Fatalf("whole-system CDG cyclic: %v", cyc)
			case !c.acyclic && cyc == nil:
				t.Fatal("whole-system CDG acyclic: no integration-induced deadlock to recover")
			case cyc != nil:
				checkWitness(t, g, cyc)
				upward := false
				for i, ch := range cyc {
					next := cyc[(i+1)%len(cyc)]
					upward = upward || topo.Node(g.Node[ch]).Chiplet == topology.InterposerChiplet && !mesh(next)
				}
				if !upward {
					t.Fatalf("witness cycle %v has no upward dependency", cyc)
				}
			}
			g.CutUpward()
			if cyc := g.FindCycle(); cyc != nil {
				t.Fatalf("CDG cyclic after the upward cut: %v", cyc)
			}

			layer, err := NewCDG(topo)
			if err != nil {
				t.Fatal(err)
			}
			var p message.Packet
			var route []Hop
			for l := topology.InterposerChiplet; l < len(topo.Chiplets); l++ {
				nodes := topo.LayerNodes(l)
				for _, src := range nodes {
					for _, dst := range nodes {
						if src != dst {
							if route, err = h.walk(&p, policy, src, dst, route[:0], nil); err != nil {
								t.Fatal(err)
							}
							for _, x := range route {
								layer.Used[layer.Base[x.Node]+int32(x.In)] |= 1 << x.Out
							}
						}
					}
				}
			}
			for c := range g.Used {
				if !mesh(int32(c)) {
					continue
				}
				var meshOut uint32
				for o := range topo.Node(g.Node[c]).Ports[1:] {
					if mesh(g.Peer[g.Base[g.Node[c]]+int32(o+1)]) {
						meshOut |= 1 << (o + 1)
					}
				}
				if got, want := g.Used[c]&meshOut, layer.Used[c]&meshOut; got != want {
					t.Fatalf("channel %d (router %d port %d): mesh dependencies %#x, same-layer walk's %#x", c, g.Node[c], g.Port[c], got, want)
				}
			}
		})
	}
}
