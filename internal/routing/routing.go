// Package routing computes output ports for packets in a chiplet-based
// system. It implements the paper's Sec. V-D scheme:
//
//  1. packets moving within one layer (a chiplet or the interposer) use a
//     locally deadlock-free algorithm — XY on regular meshes, up*/down* on
//     faulty/irregular meshes;
//  2. packets moving from a chiplet to the interposer descend through the
//     boundary router chosen at injection (static binding: the boundary
//     router closest to the source, or the composable baseline's
//     restricted choice);
//  3. packets moving from the interposer into a chiplet ascend through the
//     interposer router under the boundary router statically bound to the
//     destination chiplet router.
//
// Route computation is per-hop: the head flit carries the small amount of
// routing state (egress boundary, ingress interposer router, up*/down*
// phase) that real head flits would carry.
package routing

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

// Local routes a packet one hop within a single layer mesh toward dst
// (which must be in the same layer as cur).
type Local interface {
	// NextPort returns the output port at cur toward dst. It may read and
	// update per-packet routing state (e.g. the up*/down* phase bit).
	NextPort(cur, dst topology.NodeID, p *message.Packet) (topology.PortID, error)
}

// BoundaryPolicy selects the vertical crossing points for inter-chiplet
// packets. UPP and remote control use the static binding (Default);
// the composable baseline restricts the choice.
type BoundaryPolicy interface {
	// EgressBoundary picks the boundary router through which a packet
	// injected at src and destined to dst leaves src's chiplet. src must
	// be a chiplet-layer node and the packet must leave the chiplet.
	EgressBoundary(t *topology.Topology, src, dst topology.NodeID) topology.NodeID
}

// DefaultPolicy is the paper's static binding: packets leave through the
// boundary router bound to their source router, and enter through the
// interposer router under the boundary router bound to their destination.
type DefaultPolicy struct{}

// EgressBoundary returns the boundary router statically bound to src.
func (DefaultPolicy) EgressBoundary(t *topology.Topology, src, dst topology.NodeID) topology.NodeID {
	return t.Node(src).BoundBoundary
}

// IngressInterposer returns the interposer router from which packets to
// dst ascend: the router under dst's bound boundary router. It is shared
// by every policy — the paper's Sec. V-D fixes ingress to the destination
// binding so that all flits (and UPP signals) for one destination enter
// the chiplet through one boundary router.
func IngressInterposer(t *topology.Topology, dst topology.NodeID) topology.NodeID {
	n := t.Node(dst)
	if n.Chiplet == topology.InterposerChiplet {
		return topology.InvalidNode
	}
	return t.InterposerUnder(n.BoundBoundary)
}

// Prepare stamps the per-packet routing state at injection time: the
// egress boundary (via policy) and the ingress interposer router.
func Prepare(t *topology.Topology, p *message.Packet, policy BoundaryPolicy) {
	p.EgressBoundary = topology.InvalidNode
	p.IngressInterposer = IngressInterposer(t, p.Dst)
	p.DownPhase = false
	p.RouteLayer = int16(t.Node(p.Src).Chiplet)
	p.LayerEntryX = int16(t.Node(p.Src).X)
	p.DstChiplet = int16(t.Node(p.Dst).Chiplet)
	src := t.Node(p.Src)
	dst := t.Node(p.Dst)
	if src.Chiplet != topology.InterposerChiplet &&
		(dst.Chiplet == topology.InterposerChiplet || dst.Chiplet != src.Chiplet) {
		p.EgressBoundary = policy.EgressBoundary(t, p.Src, p.Dst)
	}
}

// Hierarchical is the full system router: it composes a Local per-layer
// algorithm with the vertical crossing rules, which it reads from the
// topology's dense routing records (topology.RouteNode).
type Hierarchical struct {
	Topo  *topology.Topology
	Local Local
	nodes []topology.RouteNode
}

// NewHierarchical builds the system routing function.
func NewHierarchical(t *topology.Topology, local Local) *Hierarchical {
	return &Hierarchical{Topo: t, Local: local, nodes: t.RouteNodes()}
}

// NextPort computes the output port for packet p at router cur.
func (h *Hierarchical) NextPort(cur topology.NodeID, p *message.Packet) (topology.PortID, error) {
	if cur == p.Dst {
		return topology.LocalPort, nil
	}
	n, dn := &h.nodes[cur], &h.nodes[p.Dst]

	if n.Layer == dn.Layer && n.Layer != topology.InterposerChiplet {
		// Case 1a: inside the destination chiplet.
		return h.Local.NextPort(cur, p.Dst, p)
	}
	if n.Layer == topology.InterposerChiplet {
		if dn.Layer == topology.InterposerChiplet {
			// Case 1b: interposer to interposer.
			return h.Local.NextPort(cur, p.Dst, p)
		}
		// Case 3: heading to a chiplet — reach the ingress interposer
		// router, then ascend to the destination's bound boundary router.
		ii := p.IngressInterposer
		if ii == topology.InvalidNode {
			return topology.InvalidPort, fmt.Errorf("routing: packet %d to %d has no ingress interposer", p.ID, p.Dst)
		}
		if cur == ii {
			if dn.Ingress == topology.InvalidPort {
				return topology.InvalidPort, fmt.Errorf("routing: interposer %d has no up link to boundary %d", cur, h.Topo.Node(p.Dst).BoundBoundary)
			}
			return dn.Ingress, nil
		}
		return h.Local.NextPort(cur, ii, p)
	}
	// Case 2: in a chiplet that is not the destination's — descend through
	// the egress boundary chosen at injection.
	eb := p.EgressBoundary
	if eb == topology.InvalidNode || h.nodes[eb].Layer != n.Layer {
		return topology.InvalidPort, fmt.Errorf("routing: packet %d at %d (chiplet %d) has no egress boundary here", p.ID, cur, n.Layer)
	}
	if cur == eb {
		if n.Down == topology.InvalidPort {
			return topology.InvalidPort, fmt.Errorf("routing: boundary %d has no down link", cur)
		}
		return n.Down, nil
	}
	return h.Local.NextPort(cur, eb, p)
}
