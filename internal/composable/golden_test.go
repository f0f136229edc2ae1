package composable

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// TestSearchGolden pins the design-time search's output beyond the
// baseline that results/fig2.csv covers: the placed restrictions, in
// placement order, and a SHA-256 of the channel-indexed next-hop table,
// for 2/4/8 boundary routers per chiplet, Fig. 9's large system, the
// heterogeneous example and the 512- and 2048-router scale presets, and
// the error on a baseline with a faulty link. The scale presets' 144 and
// 576 restrictions are pinned as a SHA-256 of the list ("sha256:" and the
// digest). Any change to the search order, the tie-breaking or the route
// computation shows up here.
func TestSearchGolden(t *testing.T) {
	boundaries := func(n int) func() (*topology.Topology, error) {
		return func() (*topology.Topology, error) {
			cfg := topology.BaselineConfig()
			cfg.BoundaryPerChiplet = n
			return topology.Build(cfg)
		}
	}
	faulty := func() (*topology.Topology, error) {
		topo, err := topology.Build(topology.BaselineConfig())
		if err != nil {
			return nil, err
		}
		_, err = topo.InjectFaults(1, 1234)
		return topo, err
	}
	scale := func(cfg topology.ScaleConfig) func() (*topology.Topology, error) {
		return func() (*topology.Topology, error) { return topology.BuildScale(cfg) }
	}
	cases := []struct {
		name         string
		build        func() (*topology.Topology, error)
		restrictions string
		nextSHA      string
		err          string
	}{
		{"boundary2", boundaries(2),
			"16:3>1 32:3>1 16:2>3 32:2>3 48:2>3 48:3>1 64:2>3 64:3>1",
			"3c7d0d611ad1727c473a02318f6084023e85e3aabe8e300ebd16d2e878ee52d0", ""},
		{"boundary4", boundaries(4),
			"16:1>3 19:3>1 16:3>1 16:3>2 19:3>2 16:2>3 28:3>2 19:2>3 28:2>3 51:2>3 32:3>1 32:1>3 35:3>1 32:3>2 35:2>3 35:3>2 44:2>3 32:2>3 " +
				"44:3>2 48:1>3 51:3>1 48:3>1 48:3>2 51:3>2 60:2>3 48:2>3 60:3>2 64:2>3 67:2>3 64:1>3 67:3>1 64:3>1 64:3>2 67:3>2 76:3>2 76:2>3",
			"65e142134f86359a12360044268a07f58c18f8a260c5cd5f7c9cea8612d68b82", ""},
		{"boundary8", boundaries(8),
			"16:1>3 17:4>1 16:3>1 16:3>2 17:4>2 17:3>4 23:3>4 19:2>3 28:2>3 24:3>4 16:2>3 30:4>3 23:4>2 23:4>3 24:4>2 24:4>3 30:3>4 17:2>4 " +
				"19:3>1 19:3>2 28:3>2 49:2>4 32:3>1 32:1>3 33:4>1 32:3>2 33:4>2 33:3>4 39:3>4 35:2>3 46:3>4 44:2>3 40:3>4 32:2>3 33:2>4 35:3>1 " +
				"35:3>2 44:3>2 46:4>3 39:4>2 39:4>3 40:4>2 40:4>3 48:1>3 49:4>1 48:3>1 48:3>2 49:4>2 49:3>4 55:3>4 51:2>3 51:3>1 51:3>2 56:3>4 " +
				"48:2>3 60:3>2 62:3>4 60:2>3 55:4>2 55:4>3 56:4>2 56:4>3 62:4>3 65:2>4 64:1>3 65:4>1 64:3>1 64:3>2 65:4>2 65:3>4 71:3>4 67:2>3 " +
				"64:2>3 67:3>1 67:3>2 72:3>4 76:3>2 78:3>4 76:2>3 71:4>2 71:4>3 72:4>2 72:4>3 78:4>3",
			"11faabd677dc19dfd626dd51aa79aef7431c8eadcd848e6ee5a845b3f5f30f54", ""},
		{"large", func() (*topology.Topology, error) { return topology.Build(topology.LargeConfig()) },
			"32:1>3 35:3>1 32:3>1 32:3>2 35:3>2 32:2>3 44:3>2 35:2>3 44:2>3 99:2>3 48:3>1 48:1>3 51:3>1 48:3>2 51:2>3 51:3>2 60:2>3 48:2>3 " +
				"60:3>2 64:3>1 64:1>3 67:3>1 64:3>2 67:2>3 67:3>2 76:2>3 64:2>3 76:3>2 80:3>1 80:1>3 83:3>1 80:3>2 83:2>3 83:3>2 92:2>3 80:2>3 " +
				"92:3>2 96:1>3 99:3>1 96:3>1 96:3>2 99:3>2 108:2>3 96:2>3 108:3>2 115:2>3 112:1>3 115:3>1 112:3>1 112:3>2 115:3>2 124:2>3 " +
				"112:2>3 124:3>2 131:2>3 128:1>3 131:3>1 128:3>1 128:3>2 131:3>2 140:2>3 128:2>3 140:3>2 144:2>3 147:2>3 144:1>3 147:3>1 " +
				"144:3>1 144:3>2 147:3>2 156:3>2 156:2>3",
			"61359b21a75d0f1a1f2785aa4ed74237f05853a5840c8391847f65b645108d38", ""},
		{"hetero", func() (*topology.Topology, error) { return topology.BuildHetero(topology.HeteroExampleConfig()) },
			"16:3>1 20:3>4 16:1>3 20:4>1 20:4>2 35:3>4 16:2>3 35:4>3 40:3>1 40:1>3 43:3>1 40:3>2 43:2>3 43:3>2 52:2>3 40:2>3 52:3>2 56:2>3 56:3>1",
			"39857b189ba41a7010150b6f6afbe8935d811f66b202b1d0df81c458617118db", ""},
		{"faulty", faulty, "", "", "composable: routes under current restrictions: no route 15 -> 0"},
		{"scaleSmall", scale(topology.ScaleSmallConfig()),
			"sha256:16a57717ff0a8b780306fb691f946c31ea37b40f0a0fac2b2b2a24d8f7a6a824",
			"9ff8cd841147bf4f622497fcee0f37dde37b4b4666301bc341aa52f7689cb033", ""},
		{"scaleLarge", scale(topology.ScaleLargeConfig()),
			"sha256:a2f00a5e3173dfb498e3011df05d181f4db3a4dfa22157612381715d2bb764d2",
			"cb4785d295c9c8009e3487fc289dd70a40e44a69224dd6342faf4ab45ce01000", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "scaleLarge" && testing.Short() {
				t.Skip("the 2048-router search takes 2 s, and over 20 s under the race detector")
			}
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			tb, err := BuildTables(topo)
			if err != nil {
				if err.Error() != tc.err {
					t.Fatalf("err = %q, want %q", err, tc.err)
				}
				return
			}
			if tc.err != "" {
				t.Fatalf("no error, want %q", tc.err)
			}
			turns := make([]string, len(tb.Restrictions))
			for i, r := range tb.Restrictions {
				turns[i] = fmt.Sprintf("%d:%d>%d", r.Node, r.In, r.Out)
			}
			next := make([]byte, len(tb.next))
			for i, p := range tb.next {
				next[i] = byte(p)
			}
			got, sum := strings.Join(turns, " "), fmt.Sprintf("%x", sha256.Sum256(next))
			if strings.HasPrefix(tc.restrictions, "sha256:") {
				got = fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(got)))
			}
			if got != tc.restrictions {
				t.Errorf("restrictions:\n got %q\nwant %q", got, tc.restrictions)
			}
			if sum != tc.nextSHA {
				t.Errorf("next-hop table SHA-256: got %s, want %s", sum, tc.nextSHA)
			}
		})
	}
}

// TestSearchBeyond512Restrictions runs the search on 512 routers that are
// all boundary routers on the chiplet side: 2x2 tiles of an 8x8
// interposer, each carrying 16 chiplets of 2x2 routers. Placements run at
// about 2.25 per boundary router, so its 256 boundary routers need 576
// restrictions, and its tables' channel dependency graph must be acyclic.
func TestSearchBeyond512Restrictions(t *testing.T) {
	topo, err := topology.BuildScale(topology.ScaleConfig{
		TilesX: 2, TilesY: 2, TileW: 8, TileH: 8,
		ChipletsX: 4, ChipletsY: 4, ChipletW: 2, ChipletH: 2,
		BoundaryPerChiplet: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BuildTables(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Restrictions) != 576 {
		t.Errorf("placed %d restrictions, want 576", len(tb.Restrictions))
	}
	if cyc := tableCycle(tb); cyc != nil {
		t.Errorf("the tables' channel dependency graph has a cycle through channels %v", cyc)
	}
}

// tableCycle reads the channel dependency graph off tb's next-hop table —
// an edge from each link channel to the channel behind every output some
// destination's next hop takes from it — and returns a cycle, or nil.
func tableCycle(tb *Tables) []int32 {
	numNodes := tb.topo.NumNodes()
	succ := map[int32][]int32{}
	for node := range tb.topo.Nodes {
		ports := tb.topo.Nodes[node].Ports
		for in := 1; in < len(ports); in++ {
			c := tb.chanBase[node] + int32(in)
			seen := map[int32]bool{}
			for _, out := range tb.next[int(c)*numNodes : (int(c)+1)*numNodes] {
				if out <= topology.LocalPort {
					continue
				}
				nc := tb.chanBase[ports[out].Neighbor] + int32(ports[out].NeighborPort)
				if !seen[nc] {
					seen[nc] = true
					succ[c] = append(succ[c], nc)
				}
			}
		}
	}
	return routing.FindCycle(routing.SortedKeys(succ), func(c int32) []int32 { return succ[c] })
}

// TestRadixBound: a router with more ports than a turn mask holds is an
// error, not a silently truncated mask.
func TestRadixBound(t *testing.T) {
	topo := &topology.Topology{Nodes: []topology.Node{{Ports: make([]topology.Port, maxPorts+1)}}}
	if _, err := BuildTables(topo); err == nil || !strings.Contains(err.Error(), "33 ports") {
		t.Fatalf("BuildTables on a %d-port router: err = %v, want the radix bound", maxPorts+1, err)
	}
}
