package topology

import (
	"fmt"

	"uppnoc/internal/sim"
)

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
	interposer := h*(w-1) + w*(h-1)
	perChiplet := c.ChipletH*(c.ChipletW-1) + c.ChipletW*(c.ChipletH-1)
	return interposer + c.NumChiplets()*(perChiplet+c.BoundaryPerChiplet)
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

// BuildScale constructs the scale-out system described by c — the one
// builder of uniform systems (Build converts and calls it).
//
// It is memory-lean: node, port and link storage are counted exactly up
// front and carved out of three contiguous arenas, so building never
// reallocates mid-construction and an 8k-router system builds in a few
// milliseconds with no per-node map allocations.
func BuildScale(c ScaleConfig) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	gw, gh := c.InterposerDims()
	numInterposer := gw * gh
	numChiplets := c.NumChiplets()
	routersPerChiplet := c.ChipletW * c.ChipletH
	numNodes := c.NumRouters()
	numLinks := c.NumLinks()
	regionW := c.TileW / c.ChipletsX
	regionH := c.TileH / c.ChipletsY
	gridW := c.TilesX * c.ChipletsX // chiplet grid width, global
	gridH := c.TilesY * c.ChipletsY
	boundaryLocal := boundaryPositions(c.ChipletW, c.ChipletH, c.BoundaryPerChiplet)

	// Exact per-node port counts, so each node's port slice can be carved
	// at full capacity from one shared arena and appends never reallocate.
	portCount := make([]int32, numNodes)
	meshDegree := func(x, y, w, h int) int32 {
		d := int32(0)
		if x > 0 {
			d++
		}
		if x+1 < w {
			d++
		}
		if y > 0 {
			d++
		}
		if y+1 < h {
			d++
		}
		return d
	}
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			portCount[y*gw+x] = 1 + meshDegree(x, y, gw, gh)
		}
	}
	// Up links: replay the attachment rule (spread or round-robin within
	// the chiplet's region) without building anything.
	regionSize := regionW * regionH
	upAt := func(gx, gy, bi int) (ix, iy int) {
		var ri int
		if c.BoundaryPerChiplet <= regionSize {
			ri = bi * regionSize / c.BoundaryPerChiplet
		} else {
			ri = bi % regionSize
		}
		return gx*regionW + ri%regionW, gy*regionH + ri/regionW
	}
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			for bi := range boundaryLocal {
				ix, iy := upAt(gx, gy, bi)
				portCount[iy*gw+ix]++
			}
		}
	}
	for ci := 0; ci < numChiplets; ci++ {
		base := numInterposer + ci*routersPerChiplet
		for y := 0; y < c.ChipletH; y++ {
			for x := 0; x < c.ChipletW; x++ {
				portCount[base+y*c.ChipletW+x] = 1 + meshDegree(x, y, c.ChipletW, c.ChipletH)
			}
		}
		for _, pos := range boundaryLocal {
			portCount[base+pos.y*c.ChipletW+pos.x]++
		}
	}
	totalPorts := 0
	for _, pc := range portCount {
		totalPorts += int(pc)
	}

	t := &Topology{
		InterposerW: gw, InterposerH: gh,
		Nodes: make([]Node, 0, numNodes),
		Links: make([]*Link, 0, numLinks),
	}
	t.linkArena = make([]Link, 0, numLinks)
	portArena := make([]Port, totalPorts)
	rng := sim.NewRNG(c.Seed)

	nextPort := 0
	newNode := func(kind NodeKind, chiplet, x, y int) NodeID {
		id := NodeID(len(t.Nodes))
		ports := portArena[nextPort : nextPort : nextPort+int(portCount[id])]
		nextPort += int(portCount[id])
		t.Nodes = append(t.Nodes, Node{
			ID: id, Kind: kind, Chiplet: chiplet, X: x, Y: y,
			Ports:         append(ports, Port{Dir: Local, Neighbor: InvalidNode, NeighborPort: InvalidPort}),
			BoundBoundary: InvalidNode,
		})
		return id
	}

	// Global interposer mesh, row-major in global coordinates. Mesh edges
	// that cross a tile border are the inter-tile bridges.
	t.Interposer = make([]NodeID, 0, numInterposer)
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			t.Interposer = append(t.Interposer, newNode(InterposerRouter, InterposerChiplet, x, y))
		}
	}
	meshLinks(t, t.Interposer, gw, gh)

	// Chiplets, in global chiplet-grid row-major order: chiplet index ci
	// sits at grid position (ci%gridW, ci/gridW).
	t.Chiplets = make([]Chiplet, 0, numChiplets)
	for ci := 0; ci < numChiplets; ci++ {
		gx, gy := ci%gridW, ci/gridW
		ch := Chiplet{Index: ci, Width: c.ChipletW, Height: c.ChipletH}
		ch.Routers = make([]NodeID, 0, routersPerChiplet)
		for y := 0; y < c.ChipletH; y++ {
			for x := 0; x < c.ChipletW; x++ {
				ch.Routers = append(ch.Routers, newNode(ChipletRouter, ci, x, y))
			}
		}
		meshLinks(t, ch.Routers, c.ChipletW, c.ChipletH)

		ch.Boundary = make([]NodeID, 0, c.BoundaryPerChiplet)
		for bi, pos := range boundaryLocal {
			b := ch.RouterAt(pos.x, pos.y)
			t.Nodes[b].Kind = BoundaryRouter
			ch.Boundary = append(ch.Boundary, b)
			ix, iy := upAt(gx, gy, bi)
			ip := t.InterposerAt(ix, iy)
			t.addLink(ip, b, Up, true)
			t.Nodes[ip].BoundBoundary = b
		}
		t.Chiplets = append(t.Chiplets, ch)
	}

	bindChipletRouters(t, rng)
	t.finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology: built scale system fails validation: %w", err)
	}
	return t, nil
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
