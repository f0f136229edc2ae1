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
	"runtime"
	"slices"
	"sort"
	"sync"

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

// maxPorts bounds a router's radix: a channel's banned outputs are one
// uint32 (the router's switch masks have the same bound).
const maxPorts = 32

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
	// legal[(k+1)*numNodes+m] has bit o set when leaving router m by
	// output port o is legal for a destination in chiplet k (see
	// moveLegal); row 0 is the interposer's. Computed once per search.
	legal []uint32
	// turns bounds the restrictions: the boundary routers' turn count.
	turns  int
	placed []Turn
	// cols[d*numChan+c] is channel c's next hop towards destination d:
	// the route computation's output, destination-major so that each
	// worker writes whole rows of its own.
	cols    []topology.PortID
	workers []routeWorker
	// succStart, succ and roots hold the channel dependency graph in
	// compressed rows: channel c's successors are
	// succ[succStart[c]:succStart[c+1]].
	succStart, succ, roots []int32
}

// routeWorker is one route-computation worker's scratch. It owns a
// contiguous range of destinations.
type routeWorker struct {
	dist, queue []int32
	// used[c] has bit o set when some next hop of channel c in the
	// worker's destinations is output o.
	used []uint32
	// failDst is the worker's lowest destination that some source cannot
	// reach (failSrc, the lowest such source), or -1.
	failDst, failSrc int
}

// BuildTables runs the design-time search for topology t.
func BuildTables(t *topology.Topology) (*Tables, error) {
	s, err := newSearch(t)
	if err != nil {
		return nil, err
	}
	if err := s.routes(); err != nil {
		return nil, fmt.Errorf("composable: routes under current restrictions: %w", err)
	}
	// A restriction bans a turn the routes use, and the routes never use
	// a banned turn, so every iteration places a new boundary-router turn.
	for range s.turns + 1 {
		cycle := s.dependencyCycle()
		if cycle == nil {
			return s.tables(), nil
		}
		if err := s.restrict(cycle); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("composable: no acyclic restriction set within %d restrictions", s.turns)
}

func newSearch(t *topology.Topology) (*search, error) {
	numNodes := t.NumNodes()
	s := &search{t: t, chanBase: make([]int32, numNodes+1), chiplet: make([]int, numNodes)}
	numChiplets := 0
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if len(n.Ports) > maxPorts {
			return nil, fmt.Errorf("composable: node %d has %d ports; the turn masks hold at most %d", i, len(n.Ports), maxPorts)
		}
		s.chanBase[i+1] = s.chanBase[i] + int32(len(n.Ports))
		s.chiplet[i] = n.Chiplet
		numChiplets = max(numChiplets, n.Chiplet+1)
		if n.Kind == topology.BoundaryRouter {
			s.turns += len(n.Ports) * (len(n.Ports) - 1)
		}
	}
	numChan := s.chanBase[numNodes]
	s.node, s.port = make([]topology.NodeID, numChan), make([]topology.PortID, numChan)
	s.peer, s.banned = make([]int32, numChan), make([]uint32, numChan)
	s.legal = make([]uint32, (numChiplets+1)*numNodes)
	for i := range t.Nodes {
		ports := t.Nodes[i].Ports
		for in := range ports {
			c := s.chanBase[i] + int32(in)
			s.node[c], s.port[c], s.peer[c] = topology.NodeID(i), topology.PortID(in), -1
			if in != int(topology.LocalPort) {
				s.peer[c] = s.chanBase[ports[in].Neighbor] + int32(ports[in].NeighborPort)
				for k := -1; k < numChiplets; k++ {
					if s.moveLegal(topology.NodeID(i), ports[in].Neighbor, k) {
						s.legal[(k+1)*numNodes+i] |= 1 << in
					}
				}
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
	s.cols = make([]topology.PortID, numNodes*int(numChan))
	s.workers = make([]routeWorker, max(1, min(runtime.GOMAXPROCS(0), numNodes)))
	for i := range s.workers {
		s.workers[i] = routeWorker{dist: make([]int32, numChan), queue: make([]int32, 0, numChan), used: make([]uint32, numChan)}
	}
	s.succStart = make([]int32, numChan+1)
	return s, nil
}

// restrict places a boundary-router turn on the cycle whose removal keeps
// the network connected, preferring turns that involve a vertical link
// (the restrictions of the paper's Fig. 2(a)). The connectivity check is
// the route computation under the enlarged set, so its routes are left
// in cols.
func (s *search) restrict(cycle []Turn) error {
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
		if s.routes() == nil {
			s.placed = append(s.placed, turn)
			return nil
		}
		s.banned[c] &^= bit
	}
	return fmt.Errorf("composable: cycle with no restrictable boundary turn (len %d)", len(cycle))
}

func turnVertical(t *topology.Topology, turn Turn) bool {
	n := t.Node(turn.Node)
	return n.Ports[turn.In].Dir == topology.Down || n.Ports[turn.Out].Dir == topology.Down ||
		n.Ports[turn.In].Dir == topology.Up || n.Ports[turn.Out].Dir == topology.Up
}

func isY(d topology.Direction) bool { return d == topology.North || d == topology.South }
func isX(d topology.Direction) bool { return d == topology.East || d == topology.West }

// routes builds per-destination shortest routes over the allowed channel
// graph (backward BFS per destination) into cols, and each worker's used
// outputs. The destinations are split into one contiguous range per
// worker. It fails if any (injection, destination) pair becomes
// unreachable, naming the lowest such destination and source.
func (s *search) routes() error {
	numNodes := len(s.chiplet)
	per := (numNodes + len(s.workers) - 1) / len(s.workers)
	run := func(i int) {
		w := &s.workers[i]
		clear(w.used)
		w.failDst, w.failSrc = -1, -1
		for d := min(i*per, numNodes); d < min((i+1)*per, numNodes); d++ {
			if src := s.routeTo(w, d); src >= 0 {
				w.failDst, w.failSrc = d, src
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(s.workers); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	// The ranges ascend, so the first failing worker holds the lowest
	// failing destination.
	for _, w := range s.workers {
		if w.failDst >= 0 {
			return fmt.Errorf("no route %d -> %d", w.failSrc, w.failDst)
		}
	}
	return nil
}

// routeTo computes every channel's next hop towards destination d into
// d's row of cols and returns the lowest source that cannot reach d, or
// -1 (the row is then incomplete).
//
// The next hops come out of the BFS itself. A channel's next hop is its
// first allowed output, in port order, among those of least distance.
// Every edge into a reached channel c is scanned when c is dequeued, and
// the channels one hop farther than c are discovered in that scan or an
// earlier one at c's distance, so keeping the lowest output port over
// the scans that find a channel at exactly dist[c]+1 yields that output.
func (s *search) routeTo(w *routeWorker, d int) int {
	numNodes, numChan := len(s.chiplet), len(s.node)
	chanBase, node, port, peer, banned := s.chanBase, s.node, s.port, s.peer, s.banned
	legal := s.legal[(s.chiplet[d]+1)*numNodes:][:numNodes]
	dist, col := w.dist, s.cols[d*numChan:][:numChan]
	for c := range dist {
		dist[c], col[c] = -1, topology.InvalidPort
	}
	// All channels arriving at d eject with distance 0.
	queue := w.queue[:0]
	for c := chanBase[d]; c < chanBase[d+1]; c++ {
		dist[c], col[c] = 0, topology.LocalPort
		queue = append(queue, c)
	}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		// Predecessors: channels of the upstream router m that may turn
		// into the link m -> node behind channel c, when that move
		// respects chiplet-entry legality.
		up := peer[c]
		if up < 0 {
			continue
		}
		m, out := node[up], port[up]
		bit := uint32(1) << out
		if legal[m]&bit == 0 {
			continue
		}
		far := dist[c] + 1
		for pc := chanBase[m]; pc < chanBase[m+1]; pc++ {
			if banned[pc]&bit != 0 {
				continue
			}
			switch {
			case dist[pc] < 0:
				dist[pc], col[pc] = far, out
				queue = append(queue, pc)
			case dist[pc] == far && out < col[pc]:
				col[pc] = out
			}
		}
	}
	w.queue = queue
	// Every injection channel must reach every destination.
	for src := 0; src < numNodes; src++ {
		if src != d && dist[chanBase[src]] < 0 {
			return src
		}
	}
	for c, out := range col {
		if out > topology.LocalPort {
			w.used[c] |= 1 << out
		}
	}
	return -1
}

// tables copies cols into the channel-major table Route reads.
func (s *search) tables() *Tables {
	numNodes, numChan := len(s.chiplet), len(s.node)
	tb := &Tables{topo: s.t, chanBase: s.chanBase, next: make([]topology.PortID, numChan*numNodes), Restrictions: s.placed}
	for d := range numNodes {
		for c, out := range s.cols[d*numChan : (d+1)*numChan] {
			tb.next[c*numNodes+d] = out
		}
	}
	return tb
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
func (s *search) dependencyCycle() []Turn {
	// Link channels = non-local (node, inPort) channels; a dependency goes
	// from the arriving channel to the chosen outgoing link's channel on
	// the far side. Injection edges cannot be part of a cycle.
	used := s.workers[0].used
	for _, w := range s.workers[1:] {
		for c, u := range w.used {
			used[c] |= u
		}
	}
	s.succ, s.roots = s.succ[:0], s.roots[:0]
	for c := range s.node {
		s.succStart[c] = int32(len(s.succ))
		if s.port[c] == topology.LocalPort || used[c] == 0 {
			continue
		}
		base := s.chanBase[s.node[c]]
		for u := used[c]; u != 0; u &= u - 1 {
			s.succ = append(s.succ, s.peer[base+int32(bits.TrailingZeros32(u))])
		}
		slices.Sort(s.succ[s.succStart[c]:])
		s.roots = append(s.roots, int32(c))
	}
	s.succStart[len(s.node)] = int32(len(s.succ))
	cycleChans := routing.FindCycle(s.roots, func(c int32) []int32 { return s.succ[s.succStart[c]:s.succStart[c+1]] })
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
