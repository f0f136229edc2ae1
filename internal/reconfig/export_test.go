package reconfig

import (
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// WalkRoute is the same-layer route walk the engine tests compare tables
// with: the node sequence (src first, dst last) of routing.WalkRoute under
// local with the static binding. layer is src's and dst's, and needs no
// stamping: routing.Prepare derives it.
func WalkRoute(t *topology.Topology, local routing.Local, layer int, src, dst topology.NodeID) ([]topology.NodeID, error) {
	route, err := routing.WalkRoute(routing.NewHierarchical(t, local), routing.DefaultPolicy{}, src, dst)
	if err != nil {
		return nil, err
	}
	path := []topology.NodeID{src}
	for _, x := range route {
		path = append(path, t.Node(x.Node).Ports[x.Out].Neighbor)
	}
	return path, nil
}
