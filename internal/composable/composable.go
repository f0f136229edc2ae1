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
	"math/bits"
	"slices"
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
// that makes them deadlock-free. It is composable routing's network.Scheme:
// at run time the scheme is nothing but these tables as the route override.
// The tables are immutable, so one value serves every network built over an
// identical topology.
type Tables struct {
	network.BaseScheme
	topo     *topology.Topology
	chanBase []int32
	// next[channel*numNodes+dst] is the output port, or InvalidPort.
	next []topology.PortID
	// Restrictions lists the placed boundary-router turn restrictions in
	// placement order.
	Restrictions []Turn
}

const (
	maxRestrictions = 512
	// maxPorts bounds a router's radix: a channel's banned outputs are one
	// uint32 (the router's switch masks have the same bound).
	maxPorts = 32
)

// search is one design-time search over flat per-channel arrays. Channel c
// is input port port[c] of router node[c]; a router's channels are
// chanBase[node] up to chanBase[node+1], so the channel an output port o
// feeds is peer[chanBase[node]+o].
type search struct {
	t        *topology.Topology
	chanBase []int32
	node     []topology.NodeID
	port     []topology.PortID
	// peer is the channel at the other end of a channel's link, -1 for
	// the local port.
	peer []int32
	// chiplet is each router's chiplet index.
	chiplet []int
	// banned[c] has bit o set when a packet arriving on channel c may not
	// leave by output port o: a U-turn, a Y-to-X turn (the XY turn model
	// within layers), a faulty link or a placed restriction. A faulty
	// input channel bans every output.
	banned []uint32
	placed []Turn
	dist   []int32
	queue  []int32
}

// BuildTables runs the design-time search for topology t.
func BuildTables(t *topology.Topology) (*Tables, error) {
	s, err := newSearch(t)
	if err != nil {
		return nil, err
	}
	tb, err := s.routes()
	if err != nil {
		return nil, fmt.Errorf("composable: routes under current restrictions: %w", err)
	}
	for iter := 0; iter <= maxRestrictions; iter++ {
		cycle := s.dependencyCycle(tb)
		if cycle == nil {
			tb.Restrictions = s.placed
			return tb, nil
		}
		if tb, err = s.restrict(cycle); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("composable: no acyclic restriction set within %d restrictions", maxRestrictions)
}

func newSearch(t *topology.Topology) (*search, error) {
	numNodes := t.NumNodes()
	s := &search{t: t, chanBase: make([]int32, numNodes+1), chiplet: make([]int, numNodes)}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if len(n.Ports) > maxPorts {
			return nil, fmt.Errorf("composable: node %d has %d ports; the turn masks hold at most %d", i, len(n.Ports), maxPorts)
		}
		s.chanBase[i+1] = s.chanBase[i] + int32(len(n.Ports))
		s.chiplet[i] = n.Chiplet
	}
	numChan := s.chanBase[numNodes]
	s.node, s.port = make([]topology.NodeID, numChan), make([]topology.PortID, numChan)
	s.peer, s.banned = make([]int32, numChan), make([]uint32, numChan)
	s.dist, s.queue = make([]int32, numChan), make([]int32, 0, numChan)
	for i := range t.Nodes {
		ports := t.Nodes[i].Ports
		for in := range ports {
			c := s.chanBase[i] + int32(in)
			s.node[c], s.port[c], s.peer[c] = topology.NodeID(i), topology.PortID(in), -1
			if in != int(topology.LocalPort) {
				s.peer[c] = s.chanBase[ports[in].Neighbor] + int32(ports[in].NeighborPort)
				if ports[in].Link.Faulty {
					s.banned[c] = ^uint32(0)
					continue
				}
			}
			for out := 1; out < len(ports); out++ {
				xyTurn := in != int(topology.LocalPort) && isY(ports[in].Dir) && isX(ports[out].Dir)
				if out == in || xyTurn || ports[out].Link.Faulty {
					s.banned[c] |= 1 << out
				}
			}
		}
	}
	return s, nil
}

// restrict places a boundary-router turn on the cycle whose removal keeps
// the network connected, preferring turns that involve a vertical link
// (the restrictions of the paper's Fig. 2(a)). The connectivity check is
// the route computation under the enlarged set, so its tables are
// returned.
func (s *search) restrict(cycle []Turn) (*Tables, error) {
	var candidates []Turn
	for _, turn := range cycle {
		if s.t.Node(turn.Node).Kind != topology.BoundaryRouter {
			continue
		}
		candidates = append(candidates, turn)
	}
	// Vertical-involving turns first, then deterministic order.
	sort.SliceStable(candidates, func(i, j int) bool {
		vi := turnVertical(s.t, candidates[i])
		vj := turnVertical(s.t, candidates[j])
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
		c, bit := s.chanBase[turn.Node]+int32(turn.In), uint32(1)<<turn.Out
		s.banned[c] |= bit
		if tb, err := s.routes(); err == nil {
			s.placed = append(s.placed, turn)
			return tb, nil
		}
		s.banned[c] &^= bit
	}
	return nil, fmt.Errorf("composable: cycle with no restrictable boundary turn (len %d)", len(cycle))
}

func turnVertical(t *topology.Topology, turn Turn) bool {
	n := t.Node(turn.Node)
	return n.Ports[turn.In].Dir == topology.Down || n.Ports[turn.Out].Dir == topology.Down ||
		n.Ports[turn.In].Dir == topology.Up || n.Ports[turn.Out].Dir == topology.Up
}

func isY(d topology.Direction) bool { return d == topology.North || d == topology.South }
func isX(d topology.Direction) bool { return d == topology.East || d == topology.West }

// routes builds per-destination shortest routes over the allowed channel
// graph (backward BFS per destination). It fails if any (injection,
// destination) pair becomes unreachable.
func (s *search) routes() (*Tables, error) {
	numNodes, numChan := len(s.chiplet), int32(len(s.node))
	tb := &Tables{topo: s.t, chanBase: s.chanBase, next: make([]topology.PortID, int(numChan)*numNodes)}
	dist := s.dist
	for d := 0; d < numNodes; d++ {
		dst := topology.NodeID(d)
		dstChiplet := s.chiplet[d]
		for i := range dist {
			dist[i] = -1
		}
		// All channels arriving at dst eject with distance 0.
		queue := s.queue[:0]
		for c := s.chanBase[d]; c < s.chanBase[d+1]; c++ {
			dist[c] = 0
			queue = append(queue, c)
		}
		for qi := 0; qi < len(queue); qi++ {
			c := queue[qi]
			// Predecessors: channels of the upstream router m that may
			// turn into the link m -> node behind channel c, when that
			// move respects chiplet-entry legality.
			up := s.peer[c]
			if up < 0 {
				continue
			}
			m := s.node[up]
			if !s.moveLegal(m, s.node[c], dstChiplet) {
				continue
			}
			bit := uint32(1) << s.port[up]
			for pc := s.chanBase[m]; pc < s.chanBase[m+1]; pc++ {
				if s.banned[pc]&bit == 0 && dist[pc] < 0 {
					dist[pc] = dist[c] + 1
					queue = append(queue, pc)
				}
			}
		}
		s.queue = queue
		// Next hops: best allowed move per channel.
		for c := int32(0); c < numChan; c++ {
			node, i := s.node[c], int(c)*numNodes+d
			if node == dst {
				tb.next[i] = topology.LocalPort
				continue
			}
			if dist[c] < 0 {
				tb.next[i] = topology.InvalidPort
				continue
			}
			best, bestD := topology.InvalidPort, int32(-1)
			for oc := s.chanBase[node] + 1; oc < s.chanBase[node+1]; oc++ {
				out := topology.PortID(oc - s.chanBase[node])
				nc := s.peer[oc]
				if s.banned[c]&(1<<out) != 0 || dist[nc] < 0 || !s.moveLegal(node, s.node[nc], dstChiplet) {
					continue
				}
				if bestD < 0 || dist[nc] < bestD {
					best, bestD = out, dist[nc]
				}
			}
			tb.next[i] = best
		}
		// Every injection channel must reach every destination.
		for src := 0; src < numNodes; src++ {
			if src != d && dist[s.chanBase[src]] < 0 {
				return nil, fmt.Errorf("no route %d -> %d", src, d)
			}
		}
	}
	return tb, nil
}

// moveLegal forbids routes that enter a chiplet other than the
// destination's, or leave the destination's chiplet.
func (s *search) moveLegal(from, to topology.NodeID, dstChiplet int) bool {
	fc, tc := s.chiplet[from], s.chiplet[to]
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

// dependencyCycle builds the channel dependency graph from the turns the
// routes actually use and returns one cycle (as turns), or nil when the
// CDG is acyclic.
func (s *search) dependencyCycle(tb *Tables) []Turn {
	numNodes := len(s.chiplet)
	// Link channels = non-local (node, inPort) channels; a dependency goes
	// from the arriving channel to the chosen outgoing link's channel on
	// the far side. Injection edges cannot be part of a cycle.
	succ := make([][]int32, len(s.node))
	var roots []int32
	for c := range s.node {
		if s.port[c] == topology.LocalPort {
			continue
		}
		var used uint32
		for _, out := range tb.next[c*numNodes : (c+1)*numNodes] {
			if out > topology.LocalPort {
				used |= 1 << out
			}
		}
		if used == 0 {
			continue
		}
		base := s.chanBase[s.node[c]]
		for ; used != 0; used &= used - 1 {
			succ[c] = append(succ[c], s.peer[base+int32(bits.TrailingZeros32(used))])
		}
		slices.Sort(succ[c])
		roots = append(roots, int32(c))
	}
	cycleChans := routing.FindCycle(roots, func(c int32) []int32 { return succ[c] })
	if cycleChans == nil {
		return nil
	}
	// The chain starts after the channel the search closed it on.
	cycleChans = append(cycleChans[1:], cycleChans[0])
	// Convert consecutive channel pairs into the turns connecting them.
	turns := make([]Turn, 0, len(cycleChans))
	for i, c := range cycleChans {
		nc := cycleChans[(i+1)%len(cycleChans)]
		node := s.node[c]
		for oc := s.chanBase[node] + 1; oc < s.chanBase[node+1]; oc++ {
			if s.peer[oc] == nc {
				turns = append(turns, Turn{node, s.port[c], topology.PortID(oc - s.chanBase[node])})
				break
			}
		}
	}
	return turns
}

// Name implements network.Scheme.
func (tb *Tables) Name() string { return "composable" }

// Attach implements network.Scheme: the tables replace the network's
// routing.
func (tb *Tables) Attach(n *network.Network) { n.SetRouteOverride(tb.Route) }
