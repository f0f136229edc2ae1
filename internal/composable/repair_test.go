package composable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"uppnoc/internal/topology"
)

// recompute returns a fresh search over s's topology with s's bans whose
// routes, counts and used outputs are computed from scratch, and the
// route computation's error.
func recompute(t *testing.T, s *search) (*search, error) {
	t.Helper()
	f, err := newSearch(s.t)
	if err != nil {
		t.Fatal(err)
	}
	copy(f.banned, s.banned)
	copy(f.allowedIn, s.allowedIn)
	return f, f.routes()
}

// searchState is the bytes of every array the repair writes or the
// rollback restores.
func searchState(s *search) string {
	var b bytes.Buffer
	for _, v := range []any{s.dist, s.cols, s.count, s.Used, s.banned, s.allowedIn} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	return b.String()
}

// checkTranspose fails unless allowedIn is exactly banned's transpose.
func checkTranspose(t *testing.T, s *search) {
	t.Helper()
	for c, ban := range s.banned {
		base, end := s.Base[s.Node[c]], s.Base[s.Node[c]+1]
		for out := int32(1); out < end-base; out++ {
			if allowed := s.allowedIn[base+out]>>(int32(c)-base)&1 == 1; allowed != (ban>>out&1 == 0) {
				t.Fatalf("channel %d output %d: allowedIn says %v, banned %032b", c, out, allowed, ban)
			}
		}
	}
}

// diffRoutes reports the first (destination, channel) at which two
// searches' distances or next hops differ, and whether counts or used
// outputs differ, or "".
func diffRoutes(got, want *search) string {
	numChan := len(got.Node)
	for i := range want.dist {
		if got.dist[i] != want.dist[i] || got.cols[i] != want.cols[i] {
			return fmt.Sprintf("destination %d channel %d: distance %d next %d, recomputed %d next %d",
				i/numChan, i%numChan, got.dist[i], got.cols[i], want.dist[i], want.cols[i])
		}
	}
	if !slices.Equal(got.count, want.count) {
		return "next-hop counts differ"
	}
	if !slices.Equal(got.Used, want.Used) {
		return "used outputs differ"
	}
	return ""
}

// TestRepairMatchesRecompute runs the search and, after every placed
// restriction, checks that the repaired distances, next hops, counts and
// used outputs are byte-identical to a route computation from scratch
// under the same bans.
func TestRepairMatchesRecompute(t *testing.T) {
	boundaries := func(n int) func() (*topology.Topology, error) {
		return func() (*topology.Topology, error) {
			cfg := topology.BaselineConfig()
			cfg.BoundaryPerChiplet = n
			return topology.Build(cfg)
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*topology.Topology, error)
		long  bool
	}{
		{"baseline", boundaries(4), false},
		{"boundary2", boundaries(2), false},
		{"boundary8", boundaries(8), false},
		{"large", func() (*topology.Topology, error) { return topology.Build(topology.LargeConfig()) }, false},
		{"hetero", func() (*topology.Topology, error) { return topology.BuildHetero(topology.HeteroExampleConfig()) }, false},
		{"scaleSmall", func() (*topology.Topology, error) { return topology.BuildScale(topology.ScaleSmallConfig()) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("a from-scratch recompute after each of 144 placements takes seconds")
			}
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSearch(topo)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.routes(); err != nil {
				t.Fatal(err)
			}
			for range s.turns + 1 {
				cycle := s.dependencyCycle()
				if cycle == nil {
					break
				}
				if err := s.restrict(cycle); err != nil {
					t.Fatal(err)
				}
				checkTranspose(t, s)
				f, err := recompute(t, s)
				if err != nil {
					t.Fatalf("after placing %v: the repair kept a ban the recompute rejects: %v", s.placed[len(s.placed)-1], err)
				}
				if d := diffRoutes(s, f); d != "" {
					t.Fatalf("after placing %v (restriction %d): %s", s.placed[len(s.placed)-1], len(s.placed), d)
				}
			}
			if s.dependencyCycle() != nil {
				t.Fatal("the search ended with a cyclic dependency graph")
			}
		})
	}
}

// TestRejectedTurnRollsBack drives the journal's rollback, which no search
// in the other tests reaches: on the baseline with one boundary router per
// chiplet, banning any turn a boundary router's routes use disconnects the
// system. Each such ban must be reported, agree with a route computation
// from scratch, and leave every array byte-identical to before. The
// boundary-router turns the routes use on the baseline with four boundary
// routers are placed too, and some of those bans are kept: the repair's
// verdict must match the recompute's, a kept ban must give the
// recompute's routes, and unplace must then restore every array.
func TestRejectedTurnRollsBack(t *testing.T) {
	rejected, accepted := 0, 0
	for _, boundaries := range []int{1, 4} {
		cfg := topology.BaselineConfig()
		cfg.BoundaryPerChiplet = boundaries
		topo, err := topology.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSearch(topo)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.routes(); err != nil {
			t.Fatal(err)
		}
		before := searchState(s)
		for node := range topo.Nodes {
			if topo.Nodes[node].Kind != topology.BoundaryRouter {
				continue
			}
			for in := range topo.Nodes[node].Ports {
				c := s.Base[node] + int32(in)
				for u := s.Used[c]; u != 0; u &= u - 1 {
					turn := Turn{topology.NodeID(node), topology.PortID(in), topology.PortID(bits.TrailingZeros32(u))}
					kept := s.place(turn)
					if kept {
						f, err := recompute(t, s)
						if err != nil {
							t.Fatalf("%d boundaries, banning %v: the repair kept it, but a recompute fails: %v", boundaries, turn, err)
						}
						if d := diffRoutes(s, f); d != "" {
							t.Fatalf("%d boundaries, banning %v: %s", boundaries, turn, d)
						}
						s.unplace(turn)
						accepted++
					} else {
						s.banned[c] |= 1 << turn.Out
						s.allowedIn[s.Base[node]+int32(turn.Out)] &^= 1 << in
						_, err := recompute(t, s)
						s.banned[c] &^= 1 << turn.Out
						s.allowedIn[s.Base[node]+int32(turn.Out)] |= 1 << in
						if err == nil {
							t.Fatalf("%d boundaries, banning %v: the repair rejected it, but a recompute keeps every route", boundaries, turn)
						}
						rejected++
					}
					if boundaries == 1 && kept {
						t.Errorf("banning boundary-router turn %v leaves the system connected", turn)
					}
					if searchState(s) != before {
						t.Fatalf("%d boundaries, banning %v (kept %v): the rollback left the search state changed", boundaries, turn, kept)
					}
				}
			}
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("%d turns rejected and %d accepted; the test needs both", rejected, accepted)
	}
	t.Logf("%d used boundary-router turns rejected and %d accepted, each rolled back", rejected, accepted)
}
