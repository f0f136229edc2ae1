package routing_test

import (
	"errors"
	"testing"

	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// isolateNode marks every mesh link at node faulty, partitioning its
// layer (unless the layer has a single router). Returns the number of
// links cut.
func isolateNode(topo *topology.Topology, node topology.NodeID) int {
	cut := 0
	for _, p := range topo.Node(node).Ports {
		if p.Link != nil && !p.Link.Vertical && !p.Link.Faulty {
			topo.SetFaulty(p.Link, true)
			cut++
		}
	}
	return cut
}

// TestUpDownDisconnectedLayer: when persistent failures partition a
// layer, NewUpDown must return a structured *DisconnectedError naming the
// layer and an unreachable node — never panic, and never a bare string
// the reconfiguration engine cannot classify.
func TestUpDownDisconnectedLayer(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	// Pick a chiplet-0 router that is not the layer's spanning-tree root
	// (the root is LayerNodes[0]; an isolated root would also partition,
	// but then the unreachable node reported is some other one).
	nodes := topo.LayerNodes(0)
	if len(nodes) < 2 {
		t.Skip("layer too small to partition")
	}
	victim := nodes[len(nodes)-1]
	if cut := isolateNode(topo, victim); cut == 0 {
		t.Fatalf("node %d has no mesh links to cut", victim)
	}
	_, err := routing.NewUpDown(topo)
	if err == nil {
		t.Fatalf("NewUpDown succeeded on a partitioned layer")
	}
	var de *routing.DisconnectedError
	if !errors.As(err, &de) {
		t.Fatalf("error %v (%T) is not a *DisconnectedError", err, err)
	}
	if de.Layer != 0 {
		t.Fatalf("DisconnectedError.Layer = %d, want 0", de.Layer)
	}
	if de.Node != victim {
		t.Fatalf("DisconnectedError.Node = %d, want %d", de.Node, victim)
	}
}

// TestUpDownDisconnectedInterposer: same contract for the interposer
// layer (its key is topology.InterposerChiplet, not a chiplet index).
func TestUpDownDisconnectedInterposer(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	nodes := topo.LayerNodes(topology.InterposerChiplet)
	if len(nodes) < 2 {
		t.Skip("interposer too small to partition")
	}
	victim := nodes[len(nodes)-1]
	if cut := isolateNode(topo, victim); cut == 0 {
		t.Fatalf("node %d has no mesh links to cut", victim)
	}
	_, err := routing.NewUpDown(topo)
	var de *routing.DisconnectedError
	if !errors.As(err, &de) {
		t.Fatalf("error %v (%T) is not a *DisconnectedError", err, err)
	}
	if de.Layer != topology.InterposerChiplet || de.Node != victim {
		t.Fatalf("DisconnectedError = %+v, want layer %d node %d", de, topology.InterposerChiplet, victim)
	}
}

// FuzzUpDownDisconnected isolates an arbitrary router (cutting all its
// mesh links) plus a few random extra faults, then requires NewUpDown to
// either succeed or fail with a *DisconnectedError — never panic, never
// an unclassifiable error. The first seed is the known partition case.
func FuzzUpDownDisconnected(f *testing.F) {
	f.Add(uint16(15), uint8(0))
	f.Add(uint16(0), uint8(4))
	f.Add(uint16(200), uint8(9))
	f.Fuzz(func(t *testing.T, a uint16, extra uint8) {
		topo := topology.MustBuild(topology.BaselineConfig())
		if n := int(extra % 8); n > 0 {
			if _, err := topo.InjectFaults(n, uint64(extra)); err != nil {
				t.Skip()
			}
		}
		victim := topology.NodeID(int(a) % topo.NumNodes())
		isolateNode(topo, victim)
		ud, err := routing.NewUpDown(topo)
		if err == nil {
			if ud == nil {
				t.Fatal("nil UpDown without error")
			}
			return
		}
		var de *routing.DisconnectedError
		if !errors.As(err, &de) {
			t.Fatalf("error %v (%T) is not a *DisconnectedError", err, err)
		}
		if de.Error() == "" {
			t.Fatal("empty DisconnectedError message")
		}
	})
}
