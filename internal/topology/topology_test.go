package topology_test

import (
	"testing"
	"testing/quick"

	"uppnoc/internal/topology"
)

func TestBaselineStructure(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	if got := topo.NumNodes(); got != 80 {
		t.Fatalf("baseline has %d routers, want 80 (16 interposer + 64 chiplet)", got)
	}
	if got := len(topo.Cores()); got != 64 {
		t.Fatalf("%d cores, want 64", got)
	}
	if got := len(topo.Interposer); got != 16 {
		t.Fatalf("%d interposer routers, want 16", got)
	}
	if got := len(topo.VerticalLinks()); got != 16 {
		t.Fatalf("%d vertical links, want 16", got)
	}
	if got := len(topo.Chiplets); got != 4 {
		t.Fatalf("%d chiplets, want 4", got)
	}
	for _, ch := range topo.Chiplets {
		if len(ch.Boundary) != 4 {
			t.Fatalf("chiplet %d has %d boundary routers, want 4", ch.Index, len(ch.Boundary))
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeStructure(t *testing.T) {
	topo := topology.MustBuild(topology.LargeConfig())
	if got := len(topo.Cores()); got != 128 {
		t.Fatalf("%d cores, want 128", got)
	}
	if got := len(topo.Interposer); got != 32 {
		t.Fatalf("%d interposer routers, want 32", got)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryCounts(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		cfg := topology.BaselineConfig()
		cfg.BoundaryPerChiplet = b
		topo, err := topology.Build(cfg)
		if err != nil {
			t.Fatalf("boundaries=%d: %v", b, err)
		}
		for _, ch := range topo.Chiplets {
			if len(ch.Boundary) != b {
				t.Fatalf("boundaries=%d: chiplet %d has %d", b, ch.Index, len(ch.Boundary))
			}
			for _, bn := range ch.Boundary {
				if topo.InterposerUnder(bn) == topology.InvalidNode {
					t.Fatalf("boundary %d lacks a vertical link", bn)
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*topology.SystemConfig){
		func(c *topology.SystemConfig) { c.InterposerW = 0 },
		func(c *topology.SystemConfig) { c.ChipletW = 1 },
		func(c *topology.SystemConfig) { c.ChipletsX = 3 }, // 4 % 3 != 0
		func(c *topology.SystemConfig) { c.BoundaryPerChiplet = 0 },
		func(c *topology.SystemConfig) { c.BoundaryPerChiplet = 100 },
	}
	for i, mutate := range bad {
		cfg := topology.BaselineConfig()
		mutate(&cfg)
		if _, err := topology.Build(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestBindingIsClosest: the Sec. V-D static binding must pick a boundary
// router at minimum Manhattan distance within the chiplet.
func TestBindingIsClosest(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for _, ch := range topo.Chiplets {
		for _, id := range ch.Routers {
			n := topo.Node(id)
			bound := topo.Node(n.BoundBoundary)
			if bound.Chiplet != n.Chiplet {
				t.Fatalf("node %d bound across chiplets", id)
			}
			got := abs(n.X-bound.X) + abs(n.Y-bound.Y)
			for _, b := range ch.Boundary {
				bn := topo.Node(b)
				if d := abs(n.X-bn.X) + abs(n.Y-bn.Y); d < got {
					t.Fatalf("node %d bound at distance %d but %d is at %d", id, got, b, d)
				}
			}
		}
	}
}

// TestBindingBalanced: random tie-breaking should spread bound routers
// over all boundary routers of a chiplet (load balance).
func TestBindingBalanced(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	for _, ch := range topo.Chiplets {
		counts := map[topology.NodeID]int{}
		for _, id := range ch.Routers {
			counts[topo.Node(id).BoundBoundary]++
		}
		for _, b := range ch.Boundary {
			if counts[b] == 0 {
				t.Fatalf("chiplet %d: boundary %d has no bound routers", ch.Index, b)
			}
		}
	}
}

func TestDirectionOpposite(t *testing.T) {
	err := quick.Check(func(raw uint8) bool {
		d := topology.Direction(raw % uint8(topology.NumDirections))
		return d.Opposite().Opposite() == d
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultInjection(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	faulted, err := topo.InjectFaults(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted) != 10 || topo.NumFaulty() != 10 {
		t.Fatalf("faulted %d links, count %d", len(faulted), topo.NumFaulty())
	}
	for _, l := range faulted {
		if l.Vertical {
			t.Fatal("vertical link faulted")
		}
	}
	for ci := -1; ci < len(topo.Chiplets); ci++ {
		if !topo.LayerConnected(ci) {
			t.Fatalf("layer %d disconnected", ci)
		}
	}
	topo.ClearFaults()
	if topo.NumFaulty() != 0 {
		t.Fatal("ClearFaults left faults")
	}
}

func TestFaultInjectionTooMany(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	if _, err := topo.InjectFaults(1000, 1); err == nil {
		t.Fatal("expected failure when faulting more links than connectivity allows")
	}
	if topo.NumFaulty() != 0 {
		t.Fatal("failed injection must roll back")
	}
}

// TestFaultDeterminism: same seed, same fault set.
func TestFaultDeterminism(t *testing.T) {
	ids := func(seed uint64) []int {
		topo := topology.MustBuild(topology.BaselineConfig())
		faulted, err := topo.InjectFaults(5, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for _, l := range faulted {
			out = append(out, l.ID)
		}
		return out
	}
	a, b := ids(42), ids(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sets differ: %v vs %v", a, b)
		}
	}
}

// TestArbitraryConfigs property-checks the builder over a config space.
func TestArbitraryConfigs(t *testing.T) {
	err := quick.Check(func(iw, ih, cw, chh, bpc uint8, seed uint64) bool {
		cfg := topology.SystemConfig{
			InterposerW: int(iw%3+1) * 2,
			InterposerH: int(ih%3+1) * 2,
			ChipletW:    int(cw%3) + 2,
			ChipletH:    int(chh%3) + 2,
			ChipletsX:   2,
			ChipletsY:   2,
			Seed:        seed,
		}
		if cfg.InterposerW%cfg.ChipletsX != 0 || cfg.InterposerH%cfg.ChipletsY != 0 {
			return true // invalid by construction; skip
		}
		maxB := 2*(cfg.ChipletW+cfg.ChipletH) - 4
		cfg.BoundaryPerChiplet = int(bpc)%maxB + 1
		topo, err := topology.Build(cfg)
		if err != nil {
			return false
		}
		return topo.Validate() == nil
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
