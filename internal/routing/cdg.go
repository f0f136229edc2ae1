package routing

import (
	"fmt"
	"math/bits"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

// MaxPorts bounds a router's radix: a channel's dependencies are one
// uint32 output mask (the router's switch masks have the same bound).
const MaxPorts = 32

// CDG is a channel dependency graph on flat per-channel arrays, the one
// graph of the repository: composable's restriction search keeps its
// routes' dependencies in it, and a reconfiguration's verdict reads two of
// them. A channel is a router input port: channel c is input port Port[c]
// of router Node[c], router n's channels are Base[n] up to Base[n+1], and
// the channel output port o of n feeds is Peer[Base[n]+o]. A local port's
// peer is itself, so an injection channel has no predecessors. Bit o of
// Used[c] is the dependency from c to the channel behind output o: some
// route arriving on c leaves by o.
type CDG struct {
	topo *topology.Topology
	Base []int32
	Node []topology.NodeID
	Port []topology.PortID
	Peer []int32
	Used []uint32
	// succStart, succ and roots hold the graph in compressed rows for
	// FindCycle, reused across calls: channel c's successors are
	// succ[succStart[c]:succStart[c+1]].
	succStart, succ, roots []int32
}

// NewCDG numbers t's channels and returns a graph with no dependencies. It
// fails on a router with more than MaxPorts ports.
func NewCDG(t *topology.Topology) (*CDG, error) {
	g := &CDG{topo: t, Base: make([]int32, t.NumNodes()+1)}
	for i := range t.Nodes {
		if n := len(t.Nodes[i].Ports); n > MaxPorts {
			return nil, fmt.Errorf("routing: node %d has %d ports; a channel's output mask holds at most %d", i, n, MaxPorts)
		}
		g.Base[i+1] = g.Base[i] + int32(len(t.Nodes[i].Ports))
	}
	numChan := g.Base[t.NumNodes()]
	g.Node, g.Port = make([]topology.NodeID, numChan), make([]topology.PortID, numChan)
	g.Peer, g.Used = make([]int32, numChan), make([]uint32, numChan)
	g.succStart = make([]int32, numChan+1)
	for i := range t.Nodes {
		for in, p := range t.Nodes[i].Ports {
			c := g.Base[i] + int32(in)
			g.Node[c], g.Port[c], g.Peer[c] = topology.NodeID(i), topology.PortID(in), c
			if in != int(topology.LocalPort) {
				g.Peer[c] = g.Base[p.Neighbor] + int32(p.NeighborPort)
			}
		}
	}
	return g, nil
}

// Or adds every dependency of h, a graph of the same topology, to g: the
// union of two routing functions' graphs.
func (g *CDG) Or(h *CDG) {
	for c, u := range h.Used {
		g.Used[c] |= u
	}
}

// CutUpward deletes the upward dependencies: those at an interposer router
// onto a vertical link. A packet on one holds an interposer buffer while it
// waits to ascend into a chiplet, the paper's upward packet, and every
// integration-induced deadlock contains one (Sec. IV-A). So a whole-system
// graph of layer-wise deadlock-free routing is acyclic after the cut.
func (g *CDG) CutUpward() {
	for c, n := range g.Node {
		if node := &g.topo.Nodes[n]; node.Chiplet == topology.InterposerChiplet {
			for o, p := range node.Ports {
				if p.Dir == topology.Up {
					g.Used[c] &^= 1 << o
				}
			}
		}
	}
}

// FindCycle returns one dependency cycle as a channel sequence, starting
// at the channel the search closed it on, or nil when the graph is
// acyclic. The roots are the non-local channels with a dependency, in
// ascending order, and each channel's successors are visited in ascending
// order, so the result is deterministic (FindCycle).
func (g *CDG) FindCycle() []int32 {
	g.succ, g.roots = g.succ[:0], g.roots[:0]
	for c := range g.Node {
		g.succStart[c] = int32(len(g.succ))
		if g.Port[c] == topology.LocalPort || g.Used[c] == 0 {
			continue
		}
		base := g.Base[g.Node[c]]
		for u := g.Used[c]; u != 0; u &= u - 1 {
			g.succ = append(g.succ, g.Peer[base+int32(bits.TrailingZeros32(u))])
		}
		slices.Sort(g.succ[g.succStart[c]:])
		g.roots = append(g.roots, int32(c))
	}
	g.succStart[len(g.Node)] = int32(len(g.succ))
	return FindCycle(g.roots, func(c int32) []int32 { return g.succ[g.succStart[c]:g.succStart[c+1]] })
}

// BuildCDG walks every ordered pair of h's routers under policy, one
// destination at a time, into the dependencies of a new graph: a route
// arriving on channel c and leaving by output o sets bit o of Used[c].
// Cross-layer routes cross both vertical links. It fails when a walk does:
// the routing function cannot route that pair.
//
// The rest of a route after a vertical link depends only on the channel it
// arrives on and its destination: the egress boundary is spent, the
// ingress router is the destination's, and every Local starts a new layer
// afresh. So once one route to dst has entered a layer on channel c, the
// walk of any later route to dst stops there.
func BuildCDG(h *Hierarchical, policy BoundaryPolicy) (*CDG, error) {
	g, err := NewCDG(h.Topo)
	if err != nil {
		return nil, err
	}
	var p message.Packet
	var route []Hop
	// entered[c] is one more than the last destination whose walk entered
	// a layer on channel c.
	entered := make([]int32, len(g.Node))
	for dst := range h.Topo.Nodes {
		known := func(n topology.NodeID, in topology.PortID) bool {
			c := g.Base[n] + int32(in)
			seen := entered[c] == int32(dst+1)
			entered[c] = int32(dst + 1)
			return seen
		}
		for src := range h.Topo.Nodes {
			if src == dst {
				continue
			}
			if route, err = h.walk(&p, policy, topology.NodeID(src), topology.NodeID(dst), route[:0], known); err != nil {
				return nil, err
			}
			for _, x := range route {
				g.Used[g.Base[x.Node]+int32(x.In)] |= 1 << x.Out
			}
		}
	}
	return g, nil
}

// Hop is one router a route leaves, with the input and output ports it
// uses there.
type Hop struct {
	Node    topology.NodeID
	In, Out topology.PortID
}

// WalkRoute returns the hops of the route a packet injected at src takes
// to dst under h and policy. Experiments use it to prove that routes
// changed after a reconfiguration and that no surviving route crosses a
// killed link.
func WalkRoute(h *Hierarchical, policy BoundaryPolicy, src, dst topology.NodeID) ([]Hop, error) {
	return h.walk(&message.Packet{}, policy, src, dst, nil, nil)
}

// walk appends to route the hops of scratch packet p, stamped as an
// injection at src would be (Prepare), from src to dst. Each Local resets
// its own per-layer state when the packet enters a new layer, so
// phase-dependent routing takes its true routes. When known is not nil it
// is asked at every layer entry, with the router and input port, and the
// walk ends there when it reports true. The walk fails on a routing error,
// an early ejection or a loop.
func (h *Hierarchical) walk(p *message.Packet, policy BoundaryPolicy, src, dst topology.NodeID, route []Hop, known func(topology.NodeID, topology.PortID) bool) ([]Hop, error) {
	t := h.Topo
	p.Src, p.Dst = src, dst
	Prepare(t, p, policy)
	cur, in := src, topology.LocalPort
	for cur != dst {
		if len(route) > 2*t.NumNodes() {
			return nil, fmt.Errorf("routing: loop routing %d -> %d", src, dst)
		}
		out, err := h.NextPort(cur, p)
		if err != nil {
			return nil, err
		}
		if out == topology.LocalPort || out == topology.InvalidPort {
			return nil, fmt.Errorf("routing: route %d -> %d ejects early at %d", src, dst, cur)
		}
		route = append(route, Hop{cur, in, out})
		port := &t.Node(cur).Ports[out]
		if known != nil && (port.Dir == topology.Up || port.Dir == topology.Down) && known(port.Neighbor, port.NeighborPort) {
			break
		}
		cur, in = port.Neighbor, port.NeighborPort
	}
	return route, nil
}
