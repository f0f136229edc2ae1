package topology

import "fmt"

// ScaleConfig parameterizes the scale-out system builder: a grid of
// interposer tiles, each an independent TileW x TileH active-interposer
// mesh carrying its own grid of chiplets, with neighbouring tiles bridged
// edge-to-edge by inter-tile links. A 1x1 tile grid degenerates to a flat
// (but arbitrarily large) single-interposer system, which is how the
// 16x16+ meshes of the scale benchmarks are expressed.
//
// The bridged tiles form one global interposer mesh with global
// coordinates, so the existing XY layer routing applies unchanged; the
// hierarchy shows up only in how chiplet regions are laid out (regions
// never straddle a tile border). Every link, bridges included, has the
// one link latency of Table II.
type ScaleConfig struct {
	// Tile grid dimensions (interposer tiles).
	TilesX, TilesY int
	// Interposer mesh dimensions per tile (routers).
	TileW, TileH int
	// Chiplet grid per tile: ChipletsX*ChipletsY chiplets are placed over
	// each tile, which is partitioned into equal rectangular regions.
	ChipletsX, ChipletsY int
	// Chiplet mesh dimensions (routers per chiplet).
	ChipletW, ChipletH int
	// BoundaryPerChiplet is the number of boundary routers (and vertical
	// links) per chiplet.
	BoundaryPerChiplet int
	// Seed drives random tie-breaking in the static binding (Sec. V-D).
	Seed uint64
}

// ScaleSmallConfig returns the flat 16x16-interposer scale system: one
// tile, 16 chiplets of 4x4 routers — 512 routers, 256 cores.
func ScaleSmallConfig() ScaleConfig {
	return ScaleConfig{
		TilesX: 1, TilesY: 1,
		TileW: 16, TileH: 16,
		ChipletsX: 4, ChipletsY: 4,
		ChipletW: 4, ChipletH: 4,
		BoundaryPerChiplet: 4,
		Seed:               1,
	}
}

// ScaleLargeConfig returns the 2x2-tile hierarchical system: four 16x16
// interposer tiles, 64 chiplets — 2048 routers, 1024 cores.
func ScaleLargeConfig() ScaleConfig {
	c := ScaleSmallConfig()
	c.TilesX, c.TilesY = 2, 2
	return c
}

// ScaleHugeConfig returns the 4x4-tile hierarchical system: sixteen 16x16
// interposer tiles, 256 chiplets — 8192 routers, 4096 cores.
func ScaleHugeConfig() ScaleConfig {
	c := ScaleSmallConfig()
	c.TilesX, c.TilesY = 4, 4
	return c
}

// InterposerDims returns the global interposer mesh dimensions.
func (c ScaleConfig) InterposerDims() (w, h int) {
	return c.TilesX * c.TileW, c.TilesY * c.TileH
}

// NumChiplets returns the total chiplet count across all tiles.
func (c ScaleConfig) NumChiplets() int {
	return c.TilesX * c.TilesY * c.ChipletsX * c.ChipletsY
}

// NumRouters returns the total router count of the built system.
func (c ScaleConfig) NumRouters() int {
	w, h := c.InterposerDims()
	return w*h + c.NumChiplets()*c.ChipletW*c.ChipletH
}

// NumCores returns the traffic endpoint count (one per chiplet router).
func (c ScaleConfig) NumCores() int {
	return c.NumChiplets() * c.ChipletW * c.ChipletH
}

// NumLinks returns the total link count of the built system: the global
// interposer mesh (tile bridges included), every chiplet mesh, and one
// vertical link per boundary router.
func (c ScaleConfig) NumLinks() int {
	w, h := c.InterposerDims()
	return meshLinkCount(w, h) + c.NumChiplets()*(meshLinkCount(c.ChipletW, c.ChipletH)+c.BoundaryPerChiplet)
}

// Validate reports configuration errors before building.
func (c ScaleConfig) Validate() error {
	switch {
	case c.TilesX < 1 || c.TilesY < 1:
		return fmt.Errorf("topology: tile grid %dx%d invalid", c.TilesX, c.TilesY)
	case c.TileW < 1 || c.TileH < 1:
		return fmt.Errorf("topology: tile %dx%d invalid", c.TileW, c.TileH)
	case c.ChipletW < 2 || c.ChipletH < 2:
		return fmt.Errorf("topology: chiplet %dx%d too small (need >=2x2)", c.ChipletW, c.ChipletH)
	case c.ChipletsX < 1 || c.ChipletsY < 1:
		return fmt.Errorf("topology: chiplet grid %dx%d invalid", c.ChipletsX, c.ChipletsY)
	case c.TileW%c.ChipletsX != 0 || c.TileH%c.ChipletsY != 0:
		return fmt.Errorf("topology: tile %dx%d not divisible into %dx%d regions",
			c.TileW, c.TileH, c.ChipletsX, c.ChipletsY)
	case c.BoundaryPerChiplet < 1:
		return fmt.Errorf("topology: need at least one boundary router per chiplet")
	case c.BoundaryPerChiplet > 2*(c.ChipletW+c.ChipletH)-4:
		return fmt.Errorf("topology: %d boundary routers exceed chiplet perimeter", c.BoundaryPerChiplet)
	}
	return nil
}

// hetero expands c to its chiplet list: the chiplets in global
// chiplet-grid row-major order, each stacked over its equal region of its
// tile (regions never straddle a tile border).
func (c ScaleConfig) hetero() HeteroConfig {
	w, h := c.InterposerDims()
	rw, rh := c.TileW/c.ChipletsX, c.TileH/c.ChipletsY
	hc := HeteroConfig{InterposerW: w, InterposerH: h, Seed: c.Seed, Chiplets: make([]ChipletSpec, 0, c.NumChiplets())}
	for gy := 0; gy < c.TilesY*c.ChipletsY; gy++ {
		for gx := 0; gx < c.TilesX*c.ChipletsX; gx++ {
			hc.Chiplets = append(hc.Chiplets, ChipletSpec{
				W: c.ChipletW, H: c.ChipletH, Boundary: c.BoundaryPerChiplet,
				RegionX: gx * rw, RegionY: gy * rh, RegionW: rw, RegionH: rh,
			})
		}
	}
	return hc
}

// BuildScale constructs the scale-out system described by c: its chiplet
// list, built by the one builder (Build converts and calls it).
func BuildScale(c ScaleConfig) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return build(c.hetero())
}

// MustBuildScale is BuildScale for known-good configurations.
func MustBuildScale(c ScaleConfig) *Topology {
	t, err := BuildScale(c)
	if err != nil {
		panic(fmt.Sprintf("topology: MustBuildScale(%dx%d tiles of %dx%d, %dx%d chiplets of %dx%d): %v",
			c.TilesX, c.TilesY, c.TileW, c.TileH, c.ChipletsX, c.ChipletsY, c.ChipletW, c.ChipletH, err))
	}
	return t
}
