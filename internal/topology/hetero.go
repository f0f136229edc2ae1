package topology

import (
	"fmt"

	"uppnoc/internal/sim"
)

// ChipletSpec describes one independently designed chiplet in a
// heterogeneous system: its own mesh dimensions, its own boundary-router
// budget, and the interposer region its vertical links land in. This is
// the design-modularity story of the paper made concrete — chiplets of
// different vendors and shapes compose onto one interposer, and the
// deadlock-freedom schemes must cope without global knowledge.
type ChipletSpec struct {
	// W, H are the chiplet's mesh dimensions.
	W, H int
	// Boundary is the number of boundary routers (vertical links).
	Boundary int
	// RegionX, RegionY, RegionW, RegionH locate the interposer rectangle
	// this chiplet stacks over.
	RegionX, RegionY, RegionW, RegionH int
}

// HeteroConfig parameterizes the heterogeneous builder.
type HeteroConfig struct {
	InterposerW, InterposerH int
	Chiplets                 []ChipletSpec
	Seed                     uint64
}

// Validate reports configuration errors, including overlapping regions.
func (c HeteroConfig) Validate() error {
	if c.InterposerW < 1 || c.InterposerH < 1 {
		return fmt.Errorf("topology: interposer %dx%d invalid", c.InterposerW, c.InterposerH)
	}
	if len(c.Chiplets) == 0 {
		return fmt.Errorf("topology: no chiplets")
	}
	used := make([]bool, c.InterposerW*c.InterposerH)
	for i, sp := range c.Chiplets {
		switch {
		case sp.W < 2 || sp.H < 2:
			return fmt.Errorf("topology: chiplet %d is %dx%d (need >=2x2)", i, sp.W, sp.H)
		case sp.Boundary < 1 || sp.Boundary > 2*(sp.W+sp.H)-4:
			return fmt.Errorf("topology: chiplet %d boundary count %d invalid", i, sp.Boundary)
		case sp.RegionW < 1 || sp.RegionH < 1,
			sp.RegionX < 0 || sp.RegionY < 0,
			sp.RegionX+sp.RegionW > c.InterposerW,
			sp.RegionY+sp.RegionH > c.InterposerH:
			return fmt.Errorf("topology: chiplet %d region out of bounds", i)
		}
		for y := sp.RegionY; y < sp.RegionY+sp.RegionH; y++ {
			for x := sp.RegionX; x < sp.RegionX+sp.RegionW; x++ {
				idx := y*c.InterposerW + x
				if used[idx] {
					return fmt.Errorf("topology: chiplet %d region overlaps another at (%d,%d)", i, x, y)
				}
				used[idx] = true
			}
		}
	}
	return nil
}

// BuildHetero constructs a heterogeneous chiplet system.
func BuildHetero(c HeteroConfig) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{InterposerW: c.InterposerW, InterposerH: c.InterposerH}
	rng := sim.NewRNG(c.Seed)

	newNode := func(kind NodeKind, chiplet, x, y int) NodeID {
		id := NodeID(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{
			ID: id, Kind: kind, Chiplet: chiplet, X: x, Y: y,
			Ports:         []Port{{Dir: Local, Neighbor: InvalidNode, NeighborPort: InvalidPort}},
			BoundBoundary: InvalidNode,
		})
		return id
	}

	t.Interposer = make([]NodeID, 0, c.InterposerW*c.InterposerH)
	for y := 0; y < c.InterposerH; y++ {
		for x := 0; x < c.InterposerW; x++ {
			t.Interposer = append(t.Interposer, newNode(InterposerRouter, InterposerChiplet, x, y))
		}
	}
	meshLinks(t, t.Interposer, c.InterposerW, c.InterposerH)

	for ci, sp := range c.Chiplets {
		ch := Chiplet{Index: ci, Width: sp.W, Height: sp.H}
		for y := 0; y < sp.H; y++ {
			for x := 0; x < sp.W; x++ {
				ch.Routers = append(ch.Routers, newNode(ChipletRouter, ci, x, y))
			}
		}
		meshLinks(t, ch.Routers, sp.W, sp.H)

		region := make([]NodeID, 0, sp.RegionW*sp.RegionH)
		for ry := 0; ry < sp.RegionH; ry++ {
			for rx := 0; rx < sp.RegionW; rx++ {
				region = append(region, t.InterposerAt(sp.RegionX+rx, sp.RegionY+ry))
			}
		}
		for bi, pos := range boundaryPositions(sp.W, sp.H, sp.Boundary) {
			b := ch.RouterAt(pos.x, pos.y)
			t.Nodes[b].Kind = BoundaryRouter
			ch.Boundary = append(ch.Boundary, b)
			var ip NodeID
			if sp.Boundary <= len(region) {
				ip = region[bi*len(region)/sp.Boundary]
			} else {
				ip = region[bi%len(region)]
			}
			t.addLink(ip, b, Up, true)
			t.Nodes[ip].BoundBoundary = b
		}
		t.Chiplets = append(t.Chiplets, ch)
	}

	bindChipletRouters(t, rng)
	t.finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology: heterogeneous system fails validation: %w", err)
	}
	return t, nil
}

// HeteroExampleConfig returns a mixed system: one large 6x4 compute
// chiplet, two 4x4 mid chiplets and one small 2x2 I/O chiplet on a 4x4
// interposer — the kind of composition the modularity attributes of
// Sec. III-A are about.
func HeteroExampleConfig() HeteroConfig {
	return HeteroConfig{
		InterposerW: 4, InterposerH: 4,
		Seed: 1,
		Chiplets: []ChipletSpec{
			{W: 6, H: 4, Boundary: 4, RegionX: 0, RegionY: 0, RegionW: 2, RegionH: 2},
			{W: 4, H: 4, Boundary: 4, RegionX: 2, RegionY: 0, RegionW: 2, RegionH: 2},
			{W: 4, H: 4, Boundary: 2, RegionX: 0, RegionY: 2, RegionW: 2, RegionH: 2},
			{W: 2, H: 2, Boundary: 1, RegionX: 2, RegionY: 2, RegionW: 2, RegionH: 2},
		},
	}
}
