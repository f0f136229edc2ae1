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
	"cmp"
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

// maxPorts is count's stride per channel: routing.NewCDG bounds a
// router's radix so that a channel's outputs fit one uint32 mask.
const maxPorts = routing.MaxPorts

// search is one design-time search over flat per-channel arrays. The
// channel numbering and the used-output masks are the embedded channel
// dependency graph's: Used[c] has bit o set while some destination's next
// hop at channel c is output o.
type search struct {
	routing.CDG
	t *topology.Topology
	// chiplet is each router's chiplet index.
	chiplet []int
	// banned[c] has bit o set when a packet arriving on channel c may not
	// leave by output port o: a U-turn, a Y-to-X turn (the XY turn model
	// within layers), a faulty link or a placed restriction. A faulty
	// input channel bans every output.
	banned []uint32
	// allowedIn is banned's transpose: allowedIn[Base[m]+o] has bit i set
	// when channel Base[m]+i may leave router m by output o.
	allowedIn []uint32
	// legal[(k+1)*numNodes+m] has bit o set when leaving router m by
	// output port o is legal for a destination in chiplet k (see
	// moveLegal); row 0 is the interposer's. Computed once per search.
	// It never has bit 0, so no walk moves into an injection channel.
	legal []uint32
	// turns bounds the restrictions: the boundary routers' turn count.
	turns  int
	placed []Turn
	// dist[d*numChan+c] is channel c's BFS distance to destination d over
	// the allowed channel graph, -1 when c cannot reach d, and cols at the
	// same index is c's next hop: its lowest allowed output one hop
	// closer. Both live for the whole search; a placed turn repairs them.
	dist []int32
	cols []topology.PortID
	// count[c*maxPorts+o] is the number of destinations whose next hop at
	// channel c is output o > LocalPort. setNext keeps Used in step: a bit
	// is set while its count is nonzero.
	count []int32
	// journal holds every entry the current candidate's repair changed,
	// with its old values, so that a rejected candidate is rolled back.
	journal []undo
	// queue is the BFS queue and the repair's affected set, fifo the
	// repair's propagation queue, and inSet marks the affected set.
	queue, fifo []int32
	inSet       []bool
}

// undo is one journaled change: the old distance and next hop at index i
// of dist and cols.
type undo struct {
	i    int
	dist int32
	next topology.PortID
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
	g, err := routing.NewCDG(t)
	if err != nil {
		return nil, fmt.Errorf("composable: %w", err)
	}
	numNodes := t.NumNodes()
	s := &search{CDG: *g, t: t, chiplet: make([]int, numNodes)}
	numChiplets := 0
	for i := range t.Nodes {
		n := &t.Nodes[i]
		s.chiplet[i] = n.Chiplet
		numChiplets = max(numChiplets, n.Chiplet+1)
		if n.Kind == topology.BoundaryRouter {
			s.turns += len(n.Ports) * (len(n.Ports) - 1)
		}
	}
	numChan := len(s.Node)
	s.banned = make([]uint32, numChan)
	s.legal = make([]uint32, (numChiplets+1)*numNodes)
	for i := range t.Nodes {
		ports := t.Nodes[i].Ports
		for in := range ports {
			c := s.Base[i] + int32(in)
			if in != int(topology.LocalPort) {
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
	s.allowedIn = make([]uint32, numChan)
	for c, ban := range s.banned {
		base, end := s.Base[s.Node[c]], s.Base[s.Node[c]+1]
		for out := int32(1); out < end-base; out++ {
			if ban&(1<<out) == 0 {
				s.allowedIn[base+out] |= 1 << (int32(c) - base)
			}
		}
	}
	s.dist, s.cols = make([]int32, numNodes*numChan), make([]topology.PortID, numNodes*numChan)
	s.count = make([]int32, numChan*maxPorts)
	s.queue, s.inSet = make([]int32, 0, numChan), make([]bool, numChan)
	return s, nil
}

// restrict places a boundary-router turn on the cycle whose removal keeps
// the network connected, preferring turns that involve a vertical link
// (the restrictions of the paper's Fig. 2(a)). The connectivity check is
// the repair of the routes under the enlarged set, so the accepted
// candidate's routes are left in dist and cols.
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
		if s.place(turn) {
			s.placed = append(s.placed, turn)
			return nil
		}
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

// routes computes every destination's distances and next hops from
// scratch, one backward BFS per destination in ascending order, and the
// counts and used outputs. It fails if any (injection, destination) pair
// is unreachable, naming the lowest such destination and source.
func (s *search) routes() error {
	clear(s.count)
	clear(s.Used)
	for d := range s.chiplet {
		if src := s.routeTo(d); src >= 0 {
			return fmt.Errorf("no route %d -> %d", src, d)
		}
	}
	return nil
}

// routeTo computes every channel's distance and next hop towards
// destination d into d's rows of dist and cols and returns the lowest
// source that cannot reach d, or -1 (the rows are then incomplete).
//
// The next hops come out of the BFS itself. A channel's next hop is its
// first allowed output, in port order, among those of least distance.
// Every edge into a reached channel c is scanned when c is dequeued, and
// the channels one hop farther than c are discovered in that scan or an
// earlier one at c's distance, so keeping the lowest output port over
// the scans that find a channel at exactly dist[c]+1 yields that output.
func (s *search) routeTo(d int) int {
	numChan := len(s.Node)
	legal := s.legalRow(d)
	dist, col := s.dist[d*numChan:][:numChan], s.cols[d*numChan:][:numChan]
	for c := range dist {
		dist[c], col[c] = -1, topology.InvalidPort
	}
	// All channels arriving at d eject with distance 0.
	queue := s.queue[:0]
	for c := s.Base[d]; c < s.Base[d+1]; c++ {
		dist[c], col[c] = 0, topology.LocalPort
		queue = append(queue, c)
	}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		far := dist[c] + 1
		s.preds(legal, c, func(pc int32, out topology.PortID) {
			switch {
			case dist[pc] < 0:
				dist[pc], col[pc] = far, out
				queue = append(queue, pc)
			case dist[pc] == far && out < col[pc]:
				col[pc] = out
			}
		})
	}
	s.queue = queue
	// Every injection channel must reach every destination.
	for src := range s.chiplet {
		if src != d && dist[s.Base[src]] < 0 {
			return src
		}
	}
	for c, out := range col {
		if out > topology.LocalPort {
			s.count[c*maxPorts+int(out)]++
			s.Used[c] |= 1 << out
		}
	}
	return -1
}

// place bans turn and repairs every destination's routes that used it. It
// keeps the ban and reports true when every injection channel still
// reaches every destination; otherwise it unplaces turn and reports false.
//
// Banning output o of channel x can only change destinations whose next
// hop at x is o: for every other destination x keeps its next hop, hence
// its distance, and no channel depends on the banned edge.
func (s *search) place(turn Turn) bool {
	x, o := s.Base[turn.Node]+int32(turn.In), turn.Out
	s.banned[x] |= 1 << o
	s.allowedIn[s.Base[turn.Node]+int32(o)] &^= 1 << turn.In
	s.journal = s.journal[:0]
	numChan := len(s.Node)
	for d := range s.chiplet {
		if s.cols[d*numChan+int(x)] == o && !s.repair(d, x) {
			s.unplace(turn)
			return false
		}
	}
	return true
}

// unplace undoes the last place, of turn: it restores the routes from the
// journal and lifts the ban.
func (s *search) unplace(turn Turn) {
	for k := len(s.journal) - 1; k >= 0; k-- {
		u := s.journal[k]
		s.dist[u.i] = u.dist
		s.setNext(u.i, u.next)
	}
	s.banned[s.Base[turn.Node]+int32(turn.In)] &^= 1 << turn.Out
	s.allowedIn[s.Base[turn.Node]+int32(turn.Out)] |= 1 << turn.In
}

// repair brings destination d's distances and next hops up to date after
// the output x's next hop took was banned, journaling every change, and
// reports false when some injection channel can no longer reach d.
//
// A channel's distance is unique and its next hop is a function of the
// distances, so the repaired rows equal a from-scratch routeTo byte for
// byte. If x has another allowed output one hop closer, only x's next hop
// changes. Otherwise the affected set, the channels whose distance grows,
// is collected layer by layer from x: a channel one hop farther than an
// affected one is affected when none of its shortest successors is
// unaffected. Its new distances start from the unaffected successors and
// spread inside the set by merging the set, sorted, with a FIFO (every
// edge weighs 1). Last, the next hops of the set, and of the unaffected
// predecessors whose next hop entered it, are recomputed.
func (s *search) repair(d int, x int32) bool {
	numChan := len(s.Node)
	legal, row := s.legalRow(d), d*numChan
	dist := s.dist[row:][:numChan]
	if out := s.nextHop(legal, dist, x); out != topology.InvalidPort {
		s.set(row+int(x), dist[x], out)
		return true
	}
	set := append(s.queue[:0], x)
	s.inSet[x] = true
	for i := 0; i < len(set); i++ {
		a := set[i]
		s.preds(legal, a, func(p int32, _ topology.PortID) {
			if !s.inSet[p] && dist[p] == dist[a]+1 && s.nextHop(legal, dist, p) == topology.InvalidPort {
				s.inSet[p] = true
				set = append(set, p)
			}
		})
	}
	for _, a := range set {
		s.journal = append(s.journal, undo{row + int(a), dist[a], s.cols[row+int(a)]})
	}
	for _, a := range set {
		least := int32(-1)
		s.succs(legal, a, func(_ topology.PortID, sc int32) {
			if !s.inSet[sc] && dist[sc] >= 0 && uint32(dist[sc]+1) < uint32(least) {
				least = dist[sc] + 1
			}
		})
		dist[a] = least
	}
	// Unreachable channels (-1) sort last as uint32.
	slices.SortFunc(set, func(a, b int32) int { return cmp.Compare(uint32(dist[a]), uint32(dist[b])) })
	fifo := s.fifo[:0]
	for i, j := 0, 0; ; {
		var c int32
		if j < len(fifo) && (i == len(set) || uint32(dist[fifo[j]]) <= uint32(dist[set[i]])) {
			c, j = fifo[j], j+1
		} else if i < len(set) && dist[set[i]] >= 0 {
			c, i = set[i], i+1
		} else {
			break
		}
		if !s.inSet[c] {
			continue // settled from the other queue
		}
		s.inSet[c] = false
		s.preds(legal, c, func(p int32, _ topology.PortID) {
			if s.inSet[p] && uint32(dist[c]+1) < uint32(dist[p]) {
				dist[p] = dist[c] + 1
				fifo = append(fifo, p)
			}
		})
	}
	s.fifo = fifo
	connected := true
	for _, a := range set {
		s.inSet[a] = false
		connected = connected && (dist[a] >= 0 || s.Port[a] != topology.LocalPort)
	}
	if !connected {
		return false
	}
	for _, a := range set {
		s.setNext(row+int(a), s.nextHop(legal, dist, a))
	}
	for _, a := range set {
		s.preds(legal, a, func(p int32, out topology.PortID) {
			if s.cols[row+int(p)] == out && dist[p] != dist[a]+1 {
				s.set(row+int(p), dist[p], s.nextHop(legal, dist, p))
			}
		})
	}
	return true
}

// legalRow is the chiplet-entry legality row of destination d's chiplet.
func (s *search) legalRow(d int) []uint32 {
	numNodes := len(s.chiplet)
	return s.legal[(s.chiplet[d]+1)*numNodes:][:numNodes]
}

// preds calls fn for every channel pc from which a packet for a
// destination with legality row legal may move into channel c, with the
// output out it leaves pc's router by.
func (s *search) preds(legal []uint32, c int32, fn func(pc int32, out topology.PortID)) {
	up := s.Peer[c]
	m, out := s.Node[up], s.Port[up]
	// The mask is empty when leaving m by out is illegal for the destination.
	for u := s.allowedIn[up] & -(legal[m] >> out & 1); u != 0; u &= u - 1 {
		fn(s.Base[m]+int32(bits.TrailingZeros32(u)), out)
	}
}

// succs calls fn, in port order, for every output out a packet for a
// destination with legality row legal may take from channel c, with the
// channel sc it enters.
func (s *search) succs(legal []uint32, c int32, fn func(out topology.PortID, sc int32)) {
	m := s.Node[c]
	for u := legal[m] &^ s.banned[c]; u != 0; u &= u - 1 {
		out := bits.TrailingZeros32(u)
		fn(topology.PortID(out), s.Peer[s.Base[m]+int32(out)])
	}
}

// nextHop returns channel c's lowest allowed output into a channel one hop
// closer under dist that is not in the affected set, or InvalidPort.
func (s *search) nextHop(legal []uint32, dist []int32, c int32) topology.PortID {
	next := topology.InvalidPort
	s.succs(legal, c, func(out topology.PortID, sc int32) {
		if next < 0 && dist[sc] == dist[c]-1 && !s.inSet[sc] {
			next = out
		}
	})
	return next
}

// set journals index i of dist and cols and writes distance dist and next
// hop next there.
func (s *search) set(i int, dist int32, next topology.PortID) {
	s.journal = append(s.journal, undo{i, s.dist[i], s.cols[i]})
	s.dist[i] = dist
	s.setNext(i, next)
}

// setNext writes next hop next at index i of cols, keeping count and Used
// in step.
func (s *search) setNext(i int, next topology.PortID) {
	c := i % len(s.Node)
	if old := s.cols[i]; old > topology.LocalPort {
		if s.count[c*maxPorts+int(old)]--; s.count[c*maxPorts+int(old)] == 0 {
			s.Used[c] &^= 1 << old
		}
	}
	if next > topology.LocalPort {
		if s.count[c*maxPorts+int(next)]++; s.count[c*maxPorts+int(next)] == 1 {
			s.Used[c] |= 1 << next
		}
	}
	s.cols[i] = next
}

// tables copies cols into the channel-major table Route reads.
func (s *search) tables() *Tables {
	numNodes, numChan := len(s.chiplet), len(s.Node)
	tb := &Tables{topo: s.t, chanBase: s.Base, next: make([]topology.PortID, numChan*numNodes), Restrictions: s.placed}
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

// dependencyCycle returns one cycle of the channel dependency graph the
// routes induce, as the turns connecting its channels, or nil when the
// graph is acyclic.
func (s *search) dependencyCycle() []Turn {
	cycleChans := s.FindCycle()
	if cycleChans == nil {
		return nil
	}
	// The chain starts after the channel the search closed it on.
	cycleChans = append(cycleChans[1:], cycleChans[0])
	// Convert consecutive channel pairs into the turns connecting them: a
	// link's two channels are each other's peers, so channel c feeds the
	// next one, nc, by output Port[Peer[nc]].
	turns := make([]Turn, len(cycleChans))
	for i, c := range cycleChans {
		nc := cycleChans[(i+1)%len(cycleChans)]
		turns[i] = Turn{s.Node[c], s.Port[c], s.Port[s.Peer[nc]]}
	}
	return turns
}

// Name implements network.Scheme.
func (tb *Tables) Name() string { return "composable" }

// Attach implements network.Scheme: the tables replace the network's
// routing.
func (tb *Tables) Attach(n *network.Network) { n.SetRouteOverride(tb.Route) }
