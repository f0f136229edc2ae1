package topology

import (
	"testing"
	"time"
)

// TestBuildScaleTable pins node/link/core counts, indexing and per-layer
// reachability for the scale generator across flat 16x16 and hierarchical
// multi-tile configurations.
func TestBuildScaleTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  ScaleConfig
	}{
		{"small_16x16_flat", ScaleSmallConfig()},
		{"large_2x2_tiles", ScaleLargeConfig()},
		{"huge_4x4_tiles", ScaleHugeConfig()},
		{"asymmetric_2x1_tiles", ScaleConfig{
			TilesX: 2, TilesY: 1,
			TileW: 16, TileH: 8,
			ChipletsX: 4, ChipletsY: 2,
			ChipletW: 4, ChipletH: 4,
			BoundaryPerChiplet: 2,
			Seed:               7,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			topo, err := BuildScale(tc.cfg)
			if err != nil {
				t.Fatalf("BuildScale: %v", err)
			}
			if got, want := topo.NumNodes(), tc.cfg.NumRouters(); got != want {
				t.Errorf("NumNodes = %d, want %d", got, want)
			}
			if got, want := len(topo.Links), tc.cfg.NumLinks(); got != want {
				t.Errorf("len(Links) = %d, want %d", got, want)
			}
			if got, want := len(topo.Cores()), tc.cfg.NumCores(); got != want {
				t.Errorf("len(Cores) = %d, want %d", got, want)
			}
			gw, gh := tc.cfg.InterposerDims()
			if topo.InterposerW != gw || topo.InterposerH != gh {
				t.Errorf("interposer dims = %dx%d, want %dx%d",
					topo.InterposerW, topo.InterposerH, gw, gh)
			}
			if got, want := len(topo.Chiplets), tc.cfg.NumChiplets(); got != want {
				t.Fatalf("len(Chiplets) = %d, want %d", got, want)
			}

			// Vertical link count and InterposerUnder consistency.
			verts := 0
			for _, ch := range topo.Chiplets {
				if got, want := len(ch.Boundary), tc.cfg.BoundaryPerChiplet; got != want {
					t.Fatalf("chiplet %d: %d boundary routers, want %d", ch.Index, got, want)
				}
				for _, b := range ch.Boundary {
					ip := topo.InterposerUnder(b)
					if ip == InvalidNode {
						t.Fatalf("boundary %d has no interposer under it", b)
					}
					if topo.Node(ip).Kind != InterposerRouter {
						t.Fatalf("InterposerUnder(%d) = %d, kind %s", b, ip, topo.Node(ip).Kind)
					}
					verts++
				}
			}
			if got, want := verts, tc.cfg.NumChiplets()*tc.cfg.BoundaryPerChiplet; got != want {
				t.Errorf("vertical links = %d, want %d", got, want)
			}

			// RouterAt / InterposerAt indexing round-trips.
			for _, ch := range topo.Chiplets {
				for y := 0; y < ch.Height; y++ {
					for x := 0; x < ch.Width; x++ {
						id := ch.RouterAt(x, y)
						n := topo.Node(id)
						if n.X != x || n.Y != y || n.Chiplet != ch.Index {
							t.Fatalf("chiplet %d RouterAt(%d,%d) = node %d at (%d,%d) chiplet %d",
								ch.Index, x, y, id, n.X, n.Y, n.Chiplet)
						}
					}
				}
			}
			for y := 0; y < gh; y++ {
				for x := 0; x < gw; x++ {
					n := topo.Node(topo.InterposerAt(x, y))
					if n.X != x || n.Y != y || n.Chiplet != InterposerChiplet {
						t.Fatalf("InterposerAt(%d,%d) = node %d at (%d,%d)", x, y, n.ID, n.X, n.Y)
					}
				}
			}

			// Routing reachability: the interposer layer and every chiplet
			// layer are connected meshes.
			if !topo.LayerConnected(InterposerChiplet) {
				t.Errorf("interposer layer not connected")
			}
			for _, ch := range topo.Chiplets {
				if !topo.LayerConnected(ch.Index) {
					t.Errorf("chiplet %d layer not connected", ch.Index)
				}
			}
		})
	}
}

// TestBuildScaleMatchesBuild: Build is BuildScale on one tile, so the
// uniform builder is held to an independent one — the same system spelled
// as uniform ChipletSpecs and built by BuildHetero must match it node for
// node and port for port, boundary counts above the region size (the
// round-robin attachment) included.
func TestBuildScaleMatchesBuild(t *testing.T) {
	crowded := StarConfig()
	crowded.BoundaryPerChiplet = 4 // four up links onto a one-router region
	for _, sys := range []SystemConfig{BaselineConfig(), LargeConfig(), StarConfig(), crowded} {
		het := HeteroConfig{InterposerW: sys.InterposerW, InterposerH: sys.InterposerH, Seed: sys.Seed}
		regionW, regionH := sys.InterposerW/sys.ChipletsX, sys.InterposerH/sys.ChipletsY
		for gy := 0; gy < sys.ChipletsY; gy++ {
			for gx := 0; gx < sys.ChipletsX; gx++ {
				het.Chiplets = append(het.Chiplets, ChipletSpec{
					W: sys.ChipletW, H: sys.ChipletH, Boundary: sys.BoundaryPerChiplet,
					RegionX: gx * regionW, RegionY: gy * regionH, RegionW: regionW, RegionH: regionH,
				})
			}
		}
		a := MustBuild(sys)
		b, err := BuildHetero(het)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumNodes() != b.NumNodes() || len(a.Links) != len(b.Links) {
			t.Fatalf("%+v: uniform build %d nodes/%d links, hetero %d/%d",
				sys, a.NumNodes(), len(a.Links), b.NumNodes(), len(b.Links))
		}
		for i := range a.Nodes {
			na, nb := &a.Nodes[i], &b.Nodes[i]
			if na.Kind != nb.Kind || na.Chiplet != nb.Chiplet || na.X != nb.X || na.Y != nb.Y ||
				na.BoundBoundary != nb.BoundBoundary || len(na.Ports) != len(nb.Ports) {
				t.Fatalf("%+v: node %d differs: %+v vs %+v", sys, i, na, nb)
			}
			for pi := range na.Ports {
				pa, pb := &na.Ports[pi], &nb.Ports[pi]
				if pa.Dir != pb.Dir || pa.Neighbor != pb.Neighbor || pa.NeighborPort != pb.NeighborPort {
					t.Fatalf("%+v: node %d port %d differs: %+v vs %+v", sys, i, pi, pa, pb)
				}
			}
		}
	}
}

// TestBuildScaleFast pins the memory-lean build budget: the 8k-router huge
// system must build (including validation) in well under a second.
func TestBuildScaleFast(t *testing.T) {
	start := time.Now()
	topo := MustBuildScale(ScaleHugeConfig())
	elapsed := time.Since(start)
	if topo.NumNodes() != 8192 {
		t.Fatalf("huge config has %d nodes, want 8192", topo.NumNodes())
	}
	// Generous bound (CI machines vary); locally this is ~10ms.
	if elapsed > time.Second {
		t.Errorf("BuildScale(huge) took %v, want < 1s", elapsed)
	}
}

// TestBuildScaleErrors pins config validation.
func TestBuildScaleErrors(t *testing.T) {
	bad := []ScaleConfig{
		{TilesX: 0, TilesY: 1, TileW: 4, TileH: 4, ChipletsX: 1, ChipletsY: 1, ChipletW: 2, ChipletH: 2, BoundaryPerChiplet: 1},
		{TilesX: 1, TilesY: 1, TileW: 5, TileH: 4, ChipletsX: 2, ChipletsY: 1, ChipletW: 2, ChipletH: 2, BoundaryPerChiplet: 1},
		{TilesX: 1, TilesY: 1, TileW: 4, TileH: 4, ChipletsX: 1, ChipletsY: 1, ChipletW: 2, ChipletH: 2, BoundaryPerChiplet: 9},
	}
	for i, cfg := range bad {
		if _, err := BuildScale(cfg); err == nil {
			t.Errorf("case %d: BuildScale accepted invalid config %+v", i, cfg)
		}
	}
}
