// Package topology models the physical structure of a chiplet-based system:
// an interposer mesh, a set of chiplet meshes stacked on top of it, and the
// vertical links that connect chiplet boundary routers to interposer
// routers (the baseline system of the UPP paper, Fig. 1).
//
// The package is purely structural — it knows nothing about flits, routing
// or flow control. Routers, network interfaces and routing algorithms are
// layered on top of it by the router, network and routing packages.
package topology

import "fmt"

// NodeID identifies a router in the system. IDs are dense, starting at 0.
type NodeID int32

// InvalidNode is the zero-information NodeID.
const InvalidNode NodeID = -1

// PortID indexes a port within a node. Port 0 is always the local (NI)
// port.
type PortID int8

// InvalidPort marks the absence of a port.
const InvalidPort PortID = -1

// LocalPort is the port every router dedicates to its network interface.
const LocalPort PortID = 0

// Direction labels the physical orientation of a port. Mesh links use the
// four compass directions; vertical links between a chiplet boundary router
// and an interposer router use Up (interposer→chiplet) and Down
// (chiplet→interposer).
type Direction uint8

// Port directions. Local is the NI attachment.
const (
	Local Direction = iota
	East
	West
	North
	South
	Up
	Down
	NumDirections
)

// String returns the conventional single-letter-ish name of d.
func (d Direction) String() string {
	switch d {
	case Local:
		return "local"
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	case Up:
		return "up"
	case Down:
		return "down"
	}
	return fmt.Sprintf("dir(%d)", uint8(d))
}

// Opposite returns the direction a link is seen from the other side.
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	case Up:
		return Down
	case Down:
		return Up
	}
	return d
}

// NodeKind distinguishes the three router roles of the baseline system.
type NodeKind uint8

// Router roles.
const (
	// ChipletRouter is a normal router inside a chiplet ("R" in Fig. 1).
	ChipletRouter NodeKind = iota
	// BoundaryRouter is a chiplet router with a vertical link down to the
	// interposer ("B" in Fig. 1).
	BoundaryRouter
	// InterposerRouter is a router in the active interposer mesh.
	InterposerRouter
)

// String names the router role.
func (k NodeKind) String() string {
	switch k {
	case ChipletRouter:
		return "chiplet"
	case BoundaryRouter:
		return "boundary"
	case InterposerRouter:
		return "interposer"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// InterposerChiplet is the Chiplet index used for interposer routers.
const InterposerChiplet = -1

// Link is a bidirectional physical channel between two routers. A faulty
// link carries no traffic in either direction.
type Link struct {
	ID       int
	A, B     NodeID
	APort    PortID
	BPort    PortID
	Latency  int
	Vertical bool
	Faulty   bool
	// Down marks a transient outage (fault injection): the link exists in
	// every routing table — unlike Faulty, which is a construction-time
	// property routing works around — but no flit crosses it while Down.
	// Traffic backs up behind it and resumes when the flap ends.
	Down bool
}

// Port is one side of a link (or the local NI attachment, which has no
// link).
type Port struct {
	Dir          Direction
	Neighbor     NodeID // InvalidNode for the local port
	NeighborPort PortID
	Link         *Link // nil for the local port
}

// Node is a single router position in the system.
type Node struct {
	ID      NodeID
	Kind    NodeKind
	Chiplet int // chiplet index, or InterposerChiplet
	X, Y    int // coordinates within the node's own layer mesh
	Ports   []Port

	// dirPort caches the port for each unique mesh direction plus Local.
	// Up/Down may have several ports on an interposer router when more
	// boundary routers than interposer region routers exist; those are
	// resolved by neighbor lookup instead.
	dirPort [NumDirections]PortID

	// BoundBoundary is the boundary router this chiplet router is
	// statically bound to (Sec. V-D). For interposer routers it is the
	// boundary router reached by this router's Up link(s) — InvalidNode if
	// the interposer router has no vertical link.
	BoundBoundary NodeID
}

// PortTo returns the port in direction d, or InvalidPort. For Up on
// interposer routers with several vertical links use PortToNeighbor.
func (n *Node) PortTo(d Direction) PortID { return n.dirPort[d] }

// PortToNeighbor returns the port whose link leads directly to neighbor,
// or InvalidPort.
func (n *Node) PortToNeighbor(neighbor NodeID) PortID {
	for i := range n.Ports {
		if n.Ports[i].Neighbor == neighbor {
			return PortID(i)
		}
	}
	return InvalidPort
}

// Chiplet describes one chiplet stacked on the interposer.
type Chiplet struct {
	Index         int
	Width, Height int
	// Routers lists the chiplet's nodes row-major ((x, y) at y*Width+x).
	Routers []NodeID
	// Boundary lists the chiplet's boundary routers in placement order.
	Boundary []NodeID
	// GridX, GridY locate the chiplet in the chiplet grid.
	GridX, GridY int
}

// RouterAt returns the chiplet router at local coordinates (x, y).
func (c *Chiplet) RouterAt(x, y int) NodeID { return c.Routers[y*c.Width+x] }

// Topology is the full system structure.
type Topology struct {
	Nodes []Node
	Links []*Link

	InterposerW, InterposerH int
	// Interposer lists interposer routers row-major.
	Interposer []NodeID
	Chiplets   []Chiplet

	// cores caches the traffic endpoints: every chiplet-layer router has a
	// core + NI attached (Fig. 1).
	cores []NodeID
	// coreBase caches, per chiplet, the index of its first router within
	// cores, making CoreIndex O(1) instead of O(chiplets).
	coreBase []int

	// linkArena, when pre-sized by a builder (BuildScale), backs the Link
	// values pointed to by Links so an 8k-router system allocates its links
	// in one block instead of one heap object per link. Builders that leave
	// it empty fall back to per-link allocation.
	linkArena []Link
}

// Node returns the node with the given id. The returned pointer stays valid
// for the topology's lifetime.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// NumNodes returns the number of routers in the system.
func (t *Topology) NumNodes() int { return len(t.Nodes) }

// Cores returns the IDs of all routers with a core attached (all chiplet
// routers including boundary routers), in a stable order. The slice is
// shared; callers must not modify it.
func (t *Topology) Cores() []NodeID { return t.cores }

// CoreIndex maps a core node to its dense index within Cores (used by
// synthetic traffic patterns such as bit complement). Returns -1 for
// non-core nodes.
func (t *Topology) CoreIndex(id NodeID) int {
	n := t.Node(id)
	if n.Chiplet == InterposerChiplet {
		return -1
	}
	c := &t.Chiplets[n.Chiplet]
	return t.coreBase[n.Chiplet] + n.Y*c.Width + n.X
}

// InterposerAt returns the interposer router at (x, y).
func (t *Topology) InterposerAt(x, y int) NodeID {
	return t.Interposer[y*t.InterposerW+x]
}

// VerticalLinks returns all vertical links.
func (t *Topology) VerticalLinks() []*Link {
	var vs []*Link
	for _, l := range t.Links {
		if l.Vertical {
			vs = append(vs, l)
		}
	}
	return vs
}

// InterposerUnder returns the interposer router connected to boundary
// router b via its down link, or InvalidNode.
func (t *Topology) InterposerUnder(b NodeID) NodeID {
	n := t.Node(b)
	p := n.PortTo(Down)
	if p == InvalidPort {
		return InvalidNode
	}
	return n.Ports[p].Neighbor
}

// addLink wires a bidirectional link between a and b with the given
// directions as seen from a.
func (t *Topology) addLink(a, b NodeID, dirFromA Direction, latency int, vertical bool) *Link {
	var l *Link
	if cap(t.linkArena) > len(t.linkArena) {
		// Arena-backed (BuildScale): the pointer stays valid because the
		// arena was pre-sized to the exact link count and never regrows.
		t.linkArena = append(t.linkArena, Link{})
		l = &t.linkArena[len(t.linkArena)-1]
	} else {
		l = &Link{}
	}
	*l = Link{
		ID:       len(t.Links),
		A:        a,
		B:        b,
		Latency:  latency,
		Vertical: vertical,
	}
	na, nb := t.Node(a), t.Node(b)
	l.APort = PortID(len(na.Ports))
	l.BPort = PortID(len(nb.Ports))
	na.Ports = append(na.Ports, Port{Dir: dirFromA, Neighbor: b, NeighborPort: l.BPort, Link: l})
	nb.Ports = append(nb.Ports, Port{Dir: dirFromA.Opposite(), Neighbor: a, NeighborPort: l.APort, Link: l})
	t.Links = append(t.Links, l)
	return l
}

// finish populates per-node caches after construction.
func (t *Topology) finish() {
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for d := Direction(0); d < NumDirections; d++ {
			n.dirPort[d] = InvalidPort
		}
		for pi := range n.Ports {
			d := n.Ports[pi].Dir
			if n.dirPort[d] == InvalidPort {
				n.dirPort[d] = PortID(pi)
			}
		}
	}
	t.cores = t.cores[:0]
	t.coreBase = make([]int, len(t.Chiplets))
	for ci := range t.Chiplets {
		t.coreBase[ci] = len(t.cores)
		t.cores = append(t.cores, t.Chiplets[ci].Routers...)
	}
}

// validateDeepMaxNodes bounds the quadratic duplicate-link scan: above this
// node count Validate skips it unless the uppdebug build tag compiles it
// back in (validateDeepAlways). The fast per-node checks always run.
const validateDeepMaxNodes = 1024

// Validate checks structural invariants and returns a descriptive error if
// any fail. The per-node checks are O(ports) and always run; the pairwise
// duplicate-link scan is O(links²) and is skipped above validateDeepMaxNodes
// nodes unless built with -tags uppdebug, so validating a 4k-router scale
// system stays cheap enough to run on every build.
func (t *Topology) Validate() error {
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("node %d has ID %d", i, n.ID)
		}
		if len(n.Ports) == 0 || n.Ports[0].Dir != Local {
			return fmt.Errorf("node %d: port 0 must be the local port", i)
		}
		var seen [NumDirections]uint8
		for pi := 1; pi < len(n.Ports); pi++ {
			p := &n.Ports[pi]
			if p.Link == nil {
				return fmt.Errorf("node %d port %d: non-local port without link", i, pi)
			}
			if p.Neighbor == n.ID {
				return fmt.Errorf("node %d port %d: self link", i, pi)
			}
			nb := t.Node(p.Neighbor)
			if int(p.NeighborPort) >= len(nb.Ports) {
				return fmt.Errorf("node %d port %d: neighbor port out of range", i, pi)
			}
			back := &nb.Ports[p.NeighborPort]
			if back.Neighbor != n.ID || back.Link != p.Link {
				return fmt.Errorf("node %d port %d: asymmetric wiring to %d", i, pi, p.Neighbor)
			}
			if p.Dir != Up && p.Dir != Down {
				seen[p.Dir]++
				if seen[p.Dir] > 1 {
					return fmt.Errorf("node %d: duplicate mesh direction %s", i, p.Dir)
				}
			}
			if (p.Dir == Up || p.Dir == Down) != p.Link.Vertical {
				return fmt.Errorf("node %d port %d: vertical flag mismatch", i, pi)
			}
		}
	}
	if len(t.Nodes) <= validateDeepMaxNodes || validateDeepAlways {
		if err := t.validateDuplicateLinks(); err != nil {
			return err
		}
	}
	for _, c := range t.Chiplets {
		if len(c.Boundary) == 0 {
			return fmt.Errorf("chiplet %d has no boundary routers", c.Index)
		}
		for _, b := range c.Boundary {
			if t.Node(b).Kind != BoundaryRouter {
				return fmt.Errorf("chiplet %d: %d listed as boundary but kind %s", c.Index, b, t.Node(b).Kind)
			}
			if t.InterposerUnder(b) == InvalidNode {
				return fmt.Errorf("boundary router %d has no down link", b)
			}
		}
	}
	for _, id := range t.cores {
		n := t.Node(id)
		if n.Chiplet == InterposerChiplet {
			return fmt.Errorf("core node %d is on the interposer", id)
		}
		if n.BoundBoundary == InvalidNode {
			return fmt.Errorf("core node %d has no bound boundary router", id)
		}
	}
	return nil
}

// validateDuplicateLinks is the deep pairwise scan: no two distinct links
// may connect the same unordered pair of nodes (every mesh edge and every
// vertical attachment is a single physical channel). Quadratic in the link
// count; Validate gates it — see validateDeepMaxNodes.
func (t *Topology) validateDuplicateLinks() error {
	for i := range t.Links {
		a, b := t.Links[i].A, t.Links[i].B
		for j := i + 1; j < len(t.Links); j++ {
			c, d := t.Links[j].A, t.Links[j].B
			if (a == c && b == d) || (a == d && b == c) {
				return fmt.Errorf("links %d and %d both connect nodes %d and %d",
					t.Links[i].ID, t.Links[j].ID, a, b)
			}
		}
	}
	return nil
}
