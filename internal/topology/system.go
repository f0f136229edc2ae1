package topology

import (
	"fmt"

	"uppnoc/internal/sim"
)

// SystemConfig parameterizes the chiplet-based system builder. The zero
// value is not useful; start from BaselineConfig or LargeConfig.
type SystemConfig struct {
	// Interposer mesh dimensions (routers).
	InterposerW, InterposerH int
	// Chiplet mesh dimensions (routers per chiplet).
	ChipletW, ChipletH int
	// Chiplet grid: ChipletsX*ChipletsY chiplets are placed over the
	// interposer. The interposer is partitioned into equal rectangular
	// regions, one per chiplet; a chiplet's vertical links land inside its
	// region.
	ChipletsX, ChipletsY int
	// BoundaryPerChiplet is the number of boundary routers (and vertical
	// links) per chiplet. Fig. 10 sweeps this over {2, 4, 8}.
	BoundaryPerChiplet int
	// Seed drives random tie-breaking in the static binding (Sec. V-D).
	Seed uint64
}

// BaselineConfig returns the paper's baseline system (Fig. 1): a 4x4 mesh
// interposer with four 4x4 mesh chiplets, four boundary routers per
// chiplet (80 routers, 64 cores).
func BaselineConfig() SystemConfig {
	return SystemConfig{
		InterposerW: 4, InterposerH: 4,
		ChipletW: 4, ChipletH: 4,
		ChipletsX: 2, ChipletsY: 2,
		BoundaryPerChiplet: 4,
		Seed:               1,
	}
}

// LargeConfig returns the 128-core system of Fig. 9: a 4x8 interposer with
// eight 4x4 chiplets.
func LargeConfig() SystemConfig {
	return SystemConfig{
		InterposerW: 8, InterposerH: 4,
		ChipletW: 4, ChipletH: 4,
		ChipletsX: 4, ChipletsY: 2,
		BoundaryPerChiplet: 4,
		Seed:               1,
	}
}

// StarConfig models the passive-substrate star system of Sec. VI-B: four
// chiplets around a small central hub chiplet that serves I/O and routing.
// From the network's perspective the hub plays the interposer's role (the
// paper's equivalence argument), so UPP applies unchanged: the "upward"
// packets are those stalled moving from the hub into a leaf chiplet.
func StarConfig() SystemConfig {
	return SystemConfig{
		InterposerW: 2, InterposerH: 2, // the central hub chiplet
		ChipletW: 4, ChipletH: 4,
		ChipletsX: 2, ChipletsY: 2,
		BoundaryPerChiplet: 1, // one link from each chiplet to the hub
		Seed:               1,
	}
}

// Validate reports configuration errors before building.
func (c SystemConfig) Validate() error {
	switch {
	case c.InterposerW < 1 || c.InterposerH < 1:
		return fmt.Errorf("topology: interposer %dx%d invalid", c.InterposerW, c.InterposerH)
	case c.ChipletW < 2 || c.ChipletH < 2:
		return fmt.Errorf("topology: chiplet %dx%d too small (need >=2x2)", c.ChipletW, c.ChipletH)
	case c.ChipletsX < 1 || c.ChipletsY < 1:
		return fmt.Errorf("topology: chiplet grid %dx%d invalid", c.ChipletsX, c.ChipletsY)
	case c.InterposerW%c.ChipletsX != 0 || c.InterposerH%c.ChipletsY != 0:
		return fmt.Errorf("topology: interposer %dx%d not divisible into %dx%d regions",
			c.InterposerW, c.InterposerH, c.ChipletsX, c.ChipletsY)
	case c.BoundaryPerChiplet < 1:
		return fmt.Errorf("topology: need at least one boundary router per chiplet")
	case c.BoundaryPerChiplet > 2*(c.ChipletW+c.ChipletH)-4:
		return fmt.Errorf("topology: %d boundary routers exceed chiplet perimeter", c.BoundaryPerChiplet)
	}
	return nil
}

// Build constructs the chiplet system described by c: BuildScale's system
// of one interposer tile.
func Build(c SystemConfig) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return BuildScale(ScaleConfig{
		TilesX: 1, TilesY: 1,
		TileW: c.InterposerW, TileH: c.InterposerH,
		ChipletsX: c.ChipletsX, ChipletsY: c.ChipletsY,
		ChipletW: c.ChipletW, ChipletH: c.ChipletH,
		BoundaryPerChiplet: c.BoundaryPerChiplet,
		Seed:               c.Seed,
	})
}

// MustBuild is Build for known-good configurations (tests, examples).
func MustBuild(c SystemConfig) *Topology {
	t, err := Build(c)
	if err != nil {
		panic(fmt.Sprintf("topology: MustBuild(%dx%d interposer, %dx%d chiplets of %dx%d): %v",
			c.InterposerW, c.InterposerH, c.ChipletsX, c.ChipletsY, c.ChipletW, c.ChipletH, err))
	}
	return t
}

// meshLinkCount is the number of links of a w x h mesh.
func meshLinkCount(w, h int) int { return h*(w-1) + w*(h-1) }

// meshEdges appends the links of a W x H mesh over nodes (row-major).
func meshEdges(edges []edge, nodes []NodeID, w, h int) []edge {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := nodes[y*w+x]
			if x+1 < w {
				edges = append(edges, edge{n, nodes[y*w+x+1], East})
			}
			if y+1 < h {
				// Larger y is "north" of smaller y in our convention.
				edges = append(edges, edge{n, nodes[(y+1)*w+x], North})
			}
		}
	}
	return edges
}

type xy struct{ x, y int }

// boundaryPositions picks k positions on the chiplet perimeter, evenly
// spaced along a clockwise perimeter walk starting at the south-west
// corner. For k=4 on a square chiplet this yields the four corners. The
// positions are distinct because k never exceeds the perimeter (Validate).
func boundaryPositions(w, h, k int) []xy {
	perimeter := perimeterWalk(w, h)
	pos := make([]xy, k)
	for i := range pos {
		pos[i] = perimeter[i*len(perimeter)/k]
	}
	return pos
}

// perimeterWalk lists the perimeter cells of a w x h grid clockwise from
// (0,0).
func perimeterWalk(w, h int) []xy {
	ps := make([]xy, 0, 2*(w+h)-4)
	for x := 0; x < w; x++ {
		ps = append(ps, xy{x, 0})
	}
	for y := 1; y < h; y++ {
		ps = append(ps, xy{w - 1, y})
	}
	for x := w - 2; x >= 0; x-- {
		ps = append(ps, xy{x, h - 1})
	}
	for y := h - 2; y >= 1; y-- {
		ps = append(ps, xy{0, y})
	}
	return ps
}

// bindChipletRouters implements the static binding of Sec. V-D: each
// chiplet router is bound to the closest boundary router of its own
// chiplet (Manhattan distance); ties are broken uniformly at random with
// the topology seed, so the binding is load-balanced yet deterministic.
func bindChipletRouters(t *Topology, rng *sim.RNG) {
	for ci := range t.Chiplets {
		ch := &t.Chiplets[ci]
		for _, id := range ch.Routers {
			n := t.Node(id)
			best := []NodeID{}
			bestD := 1 << 30
			for _, b := range ch.Boundary {
				bn := t.Node(b)
				d := abs(n.X-bn.X) + abs(n.Y-bn.Y)
				if d < bestD {
					bestD = d
					best = best[:0]
				}
				if d == bestD {
					best = append(best, b)
				}
			}
			n.BoundBoundary = best[rng.Intn(len(best))]
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
