// Package composable implements the composable-routing baseline (Yin et
// al., ISCA 2018) the UPP paper compares against: a deadlock *avoidance*
// scheme for modular chiplet systems that places unidirectional turn
// restrictions on chiplet boundary routers at design time.
//
// The implementation mirrors the published approach's structure:
//
//   - a design-time software algorithm searches for a set of turn
//     restrictions at boundary routers such that the channel dependency
//     graph induced by the actual routes is acyclic (deadlock freedom by
//     Dally's criterion) while the network stays fully connected;
//   - at run time, packets follow precomputed channel-indexed routing
//     tables (next hop depends on the input port) that honor the
//     restrictions — often through non-minimal paths concentrated on a
//     subset of boundary routers, which is exactly the path-diversity and
//     load-imbalance cost the UPP paper measures (Sec. III-B).
//
// Within each layer, turns obey the XY turn model (no Y-to-X turns), so
// intra-layer routes match the XY routing used by UPP and remote control.
package composable

import (
	"fmt"
	"sort"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// Turn identifies one input-port to output-port connection at a router.
type Turn struct {
	Node topology.NodeID
	In   topology.PortID
	Out  topology.PortID
}

// Tables holds the channel-indexed routing tables and the restriction set
// that makes them deadlock-free.
type Tables struct {
	topo     *topology.Topology
	chanBase []int32
	numChan  int
	// next[channel*numNodes+dst] is the output port, or InvalidPort.
	next []topology.PortID
	// Restrictions lists the placed boundary-router turn restrictions in
	// placement order.
	Restrictions []Turn
}

const maxRestrictions = 512

// BuildTables runs the design-time search for topology t.
func BuildTables(t *topology.Topology) (*Tables, error) {
	restricted := make(map[Turn]bool)
	var placed []Turn
	for iter := 0; iter <= maxRestrictions; iter++ {
		tb, err := computeRoutes(t, restricted)
		if err != nil {
			return nil, fmt.Errorf("composable: routes under current restrictions: %w", err)
		}
		cycle := tb.findCDGCycle()
		if cycle == nil {
			tb.Restrictions = placed
			return tb, nil
		}
		turn, err := chooseRestriction(t, restricted, cycle)
		if err != nil {
			return nil, err
		}
		restricted[turn] = true
		placed = append(placed, turn)
	}
	return nil, fmt.Errorf("composable: no acyclic restriction set within %d restrictions", maxRestrictions)
}

// chooseRestriction picks a boundary-router turn on the cycle whose
// removal keeps the network connected, preferring turns that involve a
// vertical link (the restrictions of the paper's Fig. 2(a)).
func chooseRestriction(t *topology.Topology, restricted map[Turn]bool, cycle []Turn) (Turn, error) {
	var candidates []Turn
	for _, turn := range cycle {
		if t.Node(turn.Node).Kind != topology.BoundaryRouter {
			continue
		}
		candidates = append(candidates, turn)
	}
	// Vertical-involving turns first, then deterministic order.
	sort.SliceStable(candidates, func(i, j int) bool {
		vi := turnVertical(t, candidates[i])
		vj := turnVertical(t, candidates[j])
		if vi != vj {
			return vi
		}
		a, b := candidates[i], candidates[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.In != b.In {
			return a.In < b.In
		}
		return a.Out < b.Out
	})
	for _, turn := range candidates {
		restricted[turn] = true
		if _, err := computeRoutes(t, restricted); err == nil {
			delete(restricted, turn)
			return turn, nil
		}
		delete(restricted, turn)
	}
	return Turn{}, fmt.Errorf("composable: cycle with no restrictable boundary turn (len %d)", len(cycle))
}

func turnVertical(t *topology.Topology, turn Turn) bool {
	n := t.Node(turn.Node)
	return n.Ports[turn.In].Dir == topology.Down || n.Ports[turn.Out].Dir == topology.Down ||
		n.Ports[turn.In].Dir == topology.Up || n.Ports[turn.Out].Dir == topology.Up
}

func isY(d topology.Direction) bool { return d == topology.North || d == topology.South }
func isX(d topology.Direction) bool { return d == topology.East || d == topology.West }

// turnAllowed applies the XY turn model plus the restriction set.
func turnAllowed(t *topology.Topology, restricted map[Turn]bool, node topology.NodeID, in, out topology.PortID) bool {
	if in == out {
		return false
	}
	n := t.Node(node)
	if in != topology.LocalPort {
		inDir := n.Ports[in].Dir
		outDir := n.Ports[out].Dir
		if isY(inDir) && isX(outDir) {
			return false // XY turn model within layers
		}
		_ = outDir
	}
	return !restricted[Turn{node, in, out}]
}

// computeRoutes builds per-destination shortest routes over the allowed
// channel graph (backward BFS per destination). It fails if any
// (injection, destination) pair becomes unreachable.
func computeRoutes(t *topology.Topology, restricted map[Turn]bool) (*Tables, error) {
	tb := &Tables{topo: t}
	tb.chanBase = make([]int32, t.NumNodes()+1)
	for i := range t.Nodes {
		tb.chanBase[i+1] = tb.chanBase[i] + int32(len(t.Nodes[i].Ports))
	}
	tb.numChan = int(tb.chanBase[t.NumNodes()])
	numNodes := t.NumNodes()
	tb.next = make([]topology.PortID, tb.numChan*numNodes)
	for i := range tb.next {
		tb.next[i] = topology.InvalidPort
	}
	dist := make([]int32, tb.numChan)
	queue := make([]int32, 0, tb.numChan)

	for d := 0; d < numNodes; d++ {
		dst := topology.NodeID(d)
		dstChiplet := t.Node(dst).Chiplet
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		// All channels arriving at dst eject with distance 0.
		for pi := range t.Node(dst).Ports {
			c := tb.chanBase[dst] + int32(pi)
			dist[c] = 0
			queue = append(queue, c)
		}
		for qi := 0; qi < len(queue); qi++ {
			c := queue[qi]
			node, in := tb.chanNode(c)
			// Predecessors: channels (m, mi) that can move into (node, in)
			// via the link behind input port `in`.
			if in == topology.LocalPort {
				continue
			}
			n := t.Node(node)
			pt := &n.Ports[in]
			if pt.Link.Faulty {
				continue
			}
			m := pt.Neighbor
			mOut := pt.NeighborPort
			// Moving m -> node must respect chiplet-entry legality.
			if !moveLegal(t, m, node, dst, dstChiplet) {
				continue
			}
			mn := t.Node(m)
			for mi := range mn.Ports {
				if !turnAllowed(t, restricted, m, topology.PortID(mi), mOut) {
					continue
				}
				if mi != int(topology.LocalPort) && mn.Ports[mi].Link.Faulty {
					continue
				}
				pc := tb.chanBase[m] + int32(mi)
				if dist[pc] < 0 {
					dist[pc] = dist[c] + 1
					queue = append(queue, pc)
				}
			}
		}
		// Next hops: best allowed move per channel.
		for c := int32(0); c < int32(tb.numChan); c++ {
			node, in := tb.chanNode(c)
			if node == dst {
				tb.next[int(c)*numNodes+d] = topology.LocalPort
				continue
			}
			if dist[c] < 0 {
				continue
			}
			n := t.Node(node)
			best := topology.InvalidPort
			var bestD int32 = -1
			for pi := 1; pi < len(n.Ports); pi++ {
				out := topology.PortID(pi)
				if !turnAllowed(t, restricted, node, in, out) || n.Ports[pi].Link.Faulty {
					continue
				}
				nb := n.Ports[pi].Neighbor
				if !moveLegal(t, node, nb, dst, dstChiplet) {
					continue
				}
				nc := tb.chanBase[nb] + int32(n.Ports[pi].NeighborPort)
				if dist[nc] < 0 {
					continue
				}
				if bestD < 0 || dist[nc] < bestD {
					bestD = dist[nc]
					best = out
				}
			}
			tb.next[int(c)*numNodes+d] = best
		}
		// Every injection channel must reach every destination.
		for s := 0; s < numNodes; s++ {
			if s == d {
				continue
			}
			c := tb.chanBase[s] + int32(topology.LocalPort)
			if dist[c] < 0 {
				return nil, fmt.Errorf("no route %d -> %d", s, d)
			}
		}
	}
	return tb, nil
}

// moveLegal forbids routes that enter a chiplet other than the
// destination's, or leave the destination's chiplet.
func moveLegal(t *topology.Topology, from, to topology.NodeID, dst topology.NodeID, dstChiplet int) bool {
	fc := t.Node(from).Chiplet
	tc := t.Node(to).Chiplet
	if fc == tc {
		return true
	}
	if tc != topology.InterposerChiplet && tc != dstChiplet {
		return false // ascending into a foreign chiplet
	}
	if fc != topology.InterposerChiplet && fc == dstChiplet {
		return false // descending out of the destination chiplet
	}
	return true
}

func (tb *Tables) chanNode(c int32) (topology.NodeID, topology.PortID) {
	// Binary search over chanBase.
	lo, hi := 0, len(tb.chanBase)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if tb.chanBase[mid] <= c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return topology.NodeID(lo), topology.PortID(c - tb.chanBase[lo])
}

// Route implements the run-time table lookup (a router.RouteFunc).
func (tb *Tables) Route(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error) {
	if cur == p.Dst {
		return topology.LocalPort, nil
	}
	out := tb.next[int(tb.chanBase[cur]+int32(inPort))*tb.topo.NumNodes()+int(p.Dst)]
	if out == topology.InvalidPort {
		return topology.InvalidPort, fmt.Errorf("composable: no route at node %d in %d to %d", cur, inPort, p.Dst)
	}
	return out, nil
}

// PathLength returns the hop count from src injection to dst under the
// tables (analysis and tests).
func (tb *Tables) PathLength(src, dst topology.NodeID) (int, error) {
	cur, in := src, topology.LocalPort
	p := &message.Packet{Src: src, Dst: dst}
	hops := 0
	for cur != dst {
		if hops > tb.topo.NumNodes()*2 {
			return 0, fmt.Errorf("composable: loop routing %d -> %d", src, dst)
		}
		out, err := tb.Route(cur, in, p)
		if err != nil {
			return 0, err
		}
		n := tb.topo.Node(cur)
		in = n.Ports[out].NeighborPort
		cur = n.Ports[out].Neighbor
		hops++
	}
	return hops, nil
}

// findCDGCycle builds the channel dependency graph from the turns the
// routes actually use and returns one cycle (as turns), or nil when the
// CDG is acyclic.
func (tb *Tables) findCDGCycle() []Turn {
	t := tb.topo
	numNodes := t.NumNodes()
	// Link channels = non-local (node, inPort) channels; a dependency goes
	// from the arriving channel to the chosen outgoing link's channel on
	// the far side.
	adj := make(map[int32]map[int32]bool)
	for c := int32(0); c < int32(tb.numChan); c++ {
		node, in := tb.chanNode(c)
		n := t.Node(node)
		for d := 0; d < numNodes; d++ {
			out := tb.next[int(c)*numNodes+d]
			if out == topology.InvalidPort || out == topology.LocalPort {
				continue
			}
			// The downstream channel this turn feeds.
			nc := tb.chanBase[n.Ports[out].Neighbor] + int32(n.Ports[out].NeighborPort)
			if in == topology.LocalPort {
				continue // injection edges cannot be part of a cycle
			}
			if adj[c] == nil {
				adj[c] = make(map[int32]bool)
			}
			adj[c][nc] = true
		}
	}
	// Deterministic DFS cycle detection.
	keysOf := func(m map[int32]bool) []int32 {
		ks := make([]int32, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int32]int, len(adj))
	parent := make(map[int32]int32)
	var cycleChans []int32
	var dfs func(c int32) bool
	dfs = func(c int32) bool {
		color[c] = grey
		for _, nc := range keysOf(adj[c]) {
			switch color[nc] {
			case white:
				parent[nc] = c
				if dfs(nc) {
					return true
				}
			case grey:
				// Found a cycle: unwind from c back to nc.
				cycleChans = []int32{nc}
				for x := c; x != nc; x = parent[x] {
					cycleChans = append(cycleChans, x)
				}
				// Reverse into forward order.
				for i, j := 0, len(cycleChans)-1; i < j; i, j = i+1, j-1 {
					cycleChans[i], cycleChans[j] = cycleChans[j], cycleChans[i]
				}
				return true
			}
		}
		color[c] = black
		return false
	}
	roots := make([]int32, 0, len(adj))
	for c := range adj {
		roots = append(roots, c)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, c := range roots {
		if color[c] == white && dfs(c) {
			break
		}
	}
	if cycleChans == nil {
		return nil
	}
	// Convert consecutive channel pairs into the turns connecting them.
	turns := make([]Turn, 0, len(cycleChans))
	for i := range cycleChans {
		c := cycleChans[i]
		nc := cycleChans[(i+1)%len(cycleChans)]
		node, in := tb.chanNode(c)
		// Find the output port at node leading to channel nc.
		n := t.Node(node)
		for pi := 1; pi < len(n.Ports); pi++ {
			dc := tb.chanBase[n.Ports[pi].Neighbor] + int32(n.Ports[pi].NeighborPort)
			if dc == nc {
				turns = append(turns, Turn{node, in, topology.PortID(pi)})
				break
			}
		}
	}
	return turns
}

// Scheme plugs composable routing into the network.
type Scheme struct {
	network.BaseScheme
	tables *Tables
}

// NewScheme builds the restriction set and routing tables for t.
func NewScheme(t *topology.Topology) (*Scheme, error) {
	tb, err := BuildTables(t)
	if err != nil {
		return nil, err
	}
	return &Scheme{tables: tb}, nil
}

// Name implements network.Scheme.
func (s *Scheme) Name() string { return "composable" }

// Policy implements network.Scheme. Routing is table-driven, so the
// boundary policy fields are unused; the static binding keeps packet
// metadata consistent.
func (s *Scheme) Policy() routing.BoundaryPolicy { return routing.DefaultPolicy{} }

// Attach implements network.Scheme.
func (s *Scheme) Attach(n *network.Network) { n.SetRouteOverride(s.tables.Route) }

// Tables exposes the built tables (reports and tests).
func (s *Scheme) Tables() *Tables { return s.tables }
