// Package reconfig implements deadlock-free dynamic reconfiguration for
// the chiplet system (DESIGN.md §15): persistent link failures and
// hot-adds change the topology at run time; routing is recomputed on the
// surviving graph; and the transition between the old and the new routing
// function is driven either drainlessly (when the union of their channel
// dependency graphs is provably acyclic, the UPR condition of arXiv
// 2006.02332) or through an epoch fence with UPP as the recovery net for
// the transient cycles a mixed-epoch network can form.
package reconfig

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// ChannelID identifies a directed intra-layer mesh channel: twice the
// link ID, plus one for the B→A direction.
type ChannelID int32

// Channel returns the directed channel crossed when leaving `from` over
// link l.
func Channel(l *topology.Link, from topology.NodeID) ChannelID {
	id := ChannelID(2 * l.ID)
	if from == l.B {
		id++
	}
	return id
}

// CDG is a channel-dependency graph: nodes are directed mesh channels,
// and an edge a→b records that some legal route holds channel a while
// requesting channel b. Only intra-layer (mesh) channels appear — the
// vertical layer-crossing channels are deliberately excluded, because
// the global CDG of the hierarchical routing is cyclic by design and UPP
// recovers those cycles (the paper's Sec. III argument); the per-layer
// graphs are what a routing function must keep acyclic on its own.
type CDG struct {
	adj map[ChannelID]map[ChannelID]struct{}
}

// NewCDG returns an empty graph.
func NewCDG() *CDG { return &CDG{adj: map[ChannelID]map[ChannelID]struct{}{}} }

func (g *CDG) addEdge(a, b ChannelID) {
	s := g.adj[a]
	if s == nil {
		s = map[ChannelID]struct{}{}
		g.adj[a] = s
	}
	s[b] = struct{}{}
}

// Edges returns the number of distinct dependency edges.
func (g *CDG) Edges() int {
	n := 0
	for _, s := range g.adj {
		n += len(s)
	}
	return n
}

// UsesChannel reports whether channel c appears in any dependency edge.
func (g *CDG) UsesChannel(c ChannelID) bool {
	if len(g.adj[c]) > 0 {
		return true
	}
	for _, s := range g.adj {
		if _, ok := s[c]; ok {
			return true
		}
	}
	return false
}

// Union returns a new graph holding every edge of a and b.
func Union(a, b *CDG) *CDG {
	u := NewCDG()
	for from, s := range a.adj {
		for to := range s {
			u.addEdge(from, to)
		}
	}
	for from, s := range b.adj {
		for to := range s {
			u.addEdge(from, to)
		}
	}
	return u
}

// FindCycle returns one dependency cycle as a channel sequence (first
// element repeated at the end), or nil when the graph is acyclic. The
// search (routing.FindCycle) is deterministic: nodes and successors are
// visited in ascending ChannelID order.
func (g *CDG) FindCycle() []ChannelID {
	cyc := routing.FindCycle(routing.SortedKeys(g.adj), func(c ChannelID) []ChannelID { return routing.SortedKeys(g.adj[c]) })
	if cyc == nil {
		return nil
	}
	return append(cyc, cyc[0])
}

// BuildCDG walks every ordered same-layer (src, dst) pair of every layer
// under local (WalkRoute) and collects the channel-dependency edges of the
// resulting routes: each pair of consecutive channels on a route is an
// edge. It fails if any walk errors or loops — an unroutable pair means
// the routing function itself is broken on this topology, which callers
// treat as "not provably compatible".
func BuildCDG(t *topology.Topology, local routing.Local) (*CDG, error) {
	g := NewCDG()
	layers := make([]int, 0, len(t.Chiplets)+1)
	layers = append(layers, topology.InterposerChiplet)
	for ci := range t.Chiplets {
		layers = append(layers, ci)
	}
	for _, layer := range layers {
		nodes := t.LayerNodes(layer)
		for _, src := range nodes {
			for _, dst := range nodes {
				if src == dst {
					continue
				}
				path, err := WalkRoute(t, local, layer, src, dst)
				if err != nil {
					return nil, err
				}
				prev := ChannelID(-1)
				for i, cur := range path[:len(path)-1] {
					n := t.Node(cur)
					ch := Channel(n.Ports[n.PortToNeighbor(path[i+1])].Link, cur)
					if prev >= 0 {
						g.addEdge(prev, ch)
					}
					prev = ch
				}
			}
		}
	}
	return g, nil
}

// WalkRoute returns the node sequence (src first, dst last) a packet
// injected at src takes to dst within layer under local. The walk uses a
// scratch packet initialized exactly as an injection at src would be
// (layer, entry column, up*/down* phase), so phase-dependent routing
// functions take their true routes. BuildCDG collects its dependency
// edges from it, and experiments use it to prove that routes actually
// changed after a reconfiguration and that no surviving route crosses a
// killed link.
func WalkRoute(t *topology.Topology, local routing.Local, layer int, src, dst topology.NodeID) ([]topology.NodeID, error) {
	p := &message.Packet{
		Src:         src,
		Dst:         dst,
		RouteLayer:  int16(layer),
		LayerEntryX: int16(t.Node(src).X),
		DstChiplet:  int16(layer),
	}
	path := []topology.NodeID{src}
	cur := src
	for steps := 0; cur != dst; steps++ {
		if steps > 2*t.NumNodes() {
			return nil, fmt.Errorf("reconfig: routing loop %d -> %d in layer %d", src, dst, layer)
		}
		port, err := local.NextPort(cur, dst, p)
		if err != nil {
			return nil, err
		}
		if port == topology.LocalPort || port == topology.InvalidPort {
			return nil, fmt.Errorf("reconfig: route %d -> %d in layer %d ejects early at %d", src, dst, layer, cur)
		}
		cur = t.Node(cur).Ports[port].Neighbor
		path = append(path, cur)
	}
	return path, nil
}

// CompatibleUnion reports whether old and new may coexist under load:
// their union CDG must be acyclic (the UPR safety condition — a packet
// routed partly under the old and partly under the new function can only
// wait along union edges, so an acyclic union rules out deadlock during
// the overlap). It returns the witness cycle when they cannot.
func CompatibleUnion(old, new *CDG) (bool, []ChannelID) {
	cyc := Union(old, new).FindCycle()
	return cyc == nil, cyc
}
