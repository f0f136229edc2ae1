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
	return build(c)
}

// edge is one link to wire, with its direction as seen from a.
type edge struct {
	a, b NodeID
	dir  Direction
}

// build constructs the system c describes — the one construction loop
// every builder ends in. Nodes are numbered interposer first, then each
// chiplet's routers in list order, each layer row-major; links are the
// interposer mesh, then per chiplet its mesh and its vertical links.
//
// It is memory-lean: every link is listed before any port exists, so each
// node's exact port count is known and nodes, ports and links are carved
// out of three contiguous arenas that never reallocate — an 8k-router
// system builds in a few milliseconds with no per-node allocations.
func build(c HeteroConfig) (*Topology, error) {
	iw, ih := c.InterposerW, c.InterposerH
	numNodes, numLinks := iw*ih, meshLinkCount(iw, ih)
	for _, sp := range c.Chiplets {
		numNodes += sp.W * sp.H
		numLinks += meshLinkCount(sp.W, sp.H) + sp.Boundary
	}
	t := &Topology{
		InterposerW: iw, InterposerH: ih,
		Nodes:     make([]Node, numNodes),
		Links:     make([]*Link, 0, numLinks),
		Chiplets:  make([]Chiplet, len(c.Chiplets)),
		linkArena: make([]Link, 0, numLinks),
	}
	edges := make([]edge, 0, numLinks)
	next := 0
	layer := func(kind NodeKind, chiplet, w, h int) []NodeID {
		ids := make([]NodeID, w*h)
		for i := range ids {
			ids[i] = NodeID(next + i)
			t.Nodes[next+i] = Node{ID: ids[i], Kind: kind, Chiplet: chiplet, X: i % w, Y: i / w, BoundBoundary: InvalidNode}
		}
		next += w * h
		edges = meshEdges(edges, ids, w, h)
		return ids
	}
	t.Interposer = layer(InterposerRouter, InterposerChiplet, iw, ih)
	for ci, sp := range c.Chiplets {
		ch := &t.Chiplets[ci]
		*ch = Chiplet{Index: ci, Width: sp.W, Height: sp.H, Boundary: make([]NodeID, 0, sp.Boundary)}
		ch.Routers = layer(ChipletRouter, ci, sp.W, sp.H)
		// Vertical links spread evenly over the region (row-major), or
		// round-robin when boundary routers outnumber region routers.
		region := sp.RegionW * sp.RegionH
		for bi, pos := range boundaryPositions(sp.W, sp.H, sp.Boundary) {
			ri := bi % region
			if sp.Boundary <= region {
				ri = bi * region / sp.Boundary
			}
			b := ch.RouterAt(pos.x, pos.y)
			t.Nodes[b].Kind = BoundaryRouter
			ch.Boundary = append(ch.Boundary, b)
			edges = append(edges, edge{t.InterposerAt(sp.RegionX+ri%sp.RegionW, sp.RegionY+ri/sp.RegionW), b, Up})
		}
	}

	portCount := make([]int32, numNodes)
	for _, e := range edges {
		portCount[e.a]++
		portCount[e.b]++
	}
	ports := make([]Port, numNodes+2*len(edges))
	for i := range t.Nodes {
		n := 1 + int(portCount[i])
		t.Nodes[i].Ports = append(ports[:0:n], Port{Dir: Local, Neighbor: InvalidNode, NeighborPort: InvalidPort})
		ports = ports[n:]
	}
	for _, e := range edges {
		t.addLink(e.a, e.b, e.dir)
		if e.dir == Up {
			t.Nodes[e.a].BoundBoundary = e.b
		}
	}

	bindChipletRouters(t, sim.NewRNG(c.Seed))
	t.finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology: built system fails validation: %w", err)
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
