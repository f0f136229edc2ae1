package routing

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/topology"
)

// XY is dimension-ordered routing for regular mesh layers: first move
// along X, then along Y. It is deadlock-free within each layer and is the
// paper's local algorithm for all healthy systems (Sec. VI). It reads the
// topology's dense routing records (topology.RouteNode), whose faulty-port
// masks follow Topology.SetFaulty.
type XY struct {
	Topo  *topology.Topology
	nodes []topology.RouteNode
}

// NewXY returns XY routing over t.
func NewXY(t *topology.Topology) *XY { return &XY{Topo: t, nodes: t.RouteNodes()} }

// NextPort implements Local.
func (r *XY) NextPort(cur, dst topology.NodeID, _ *message.Packet) (topology.PortID, error) {
	cn, dn := &r.nodes[cur], &r.nodes[dst]
	if cn.Layer != dn.Layer {
		return topology.InvalidPort, fmt.Errorf("routing: XY across layers (%d -> %d)", cur, dst)
	}
	var dir topology.Direction
	switch {
	case dn.X > cn.X:
		dir = topology.East
	case dn.X < cn.X:
		dir = topology.West
	case dn.Y > cn.Y:
		dir = topology.North
	case dn.Y < cn.Y:
		dir = topology.South
	default:
		return topology.LocalPort, nil
	}
	p := cn.Mesh[dir-topology.East]
	if p == topology.InvalidPort {
		return topology.InvalidPort, fmt.Errorf("routing: XY needs %s port at node %d", dir, cur)
	}
	if cn.Faulty&(1<<(dir-topology.East)) != 0 {
		return topology.InvalidPort, fmt.Errorf("routing: XY hit faulty link at node %d dir %s (use up*/down* on faulty systems)", cur, dir)
	}
	return p, nil
}
