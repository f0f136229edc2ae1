package routing_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"uppnoc/internal/faults"
	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// refXY is XY's case analysis over topology.Node, its Port and the Port's
// Link — what XY.NextPort computed before it read the dense routing
// records, kept here as their reference.
func refXY(t *topology.Topology, cur, dst topology.NodeID) (topology.PortID, error) {
	cn := t.Node(cur)
	dn := t.Node(dst)
	if cn.Chiplet != dn.Chiplet {
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
	p := cn.PortTo(dir)
	if p == topology.InvalidPort {
		return topology.InvalidPort, fmt.Errorf("routing: XY needs %s port at node %d", dir, cur)
	}
	if cn.Ports[p].Link.Faulty {
		return topology.InvalidPort, fmt.Errorf("routing: XY hit faulty link at node %d dir %s (use up*/down* on faulty systems)", cur, dir)
	}
	return p, nil
}

// refNextPort is Hierarchical.NextPort's case analysis over topology.Node,
// with refXY as the local algorithm.
func refNextPort(t *topology.Topology, cur topology.NodeID, p *message.Packet) (topology.PortID, error) {
	if cur == p.Dst {
		return topology.LocalPort, nil
	}
	n := t.Node(cur)
	dn := t.Node(p.Dst)
	if n.Chiplet == dn.Chiplet && n.Chiplet != topology.InterposerChiplet {
		return refXY(t, cur, p.Dst)
	}
	if n.Chiplet == topology.InterposerChiplet {
		if dn.Chiplet == topology.InterposerChiplet {
			return refXY(t, cur, p.Dst)
		}
		ii := p.IngressInterposer
		if ii == topology.InvalidNode {
			return topology.InvalidPort, fmt.Errorf("routing: packet %d to %d has no ingress interposer", p.ID, p.Dst)
		}
		if cur == ii {
			up := n.PortToNeighbor(dn.BoundBoundary)
			if up == topology.InvalidPort {
				return topology.InvalidPort, fmt.Errorf("routing: interposer %d has no up link to boundary %d", cur, dn.BoundBoundary)
			}
			return up, nil
		}
		return refXY(t, cur, ii)
	}
	eb := p.EgressBoundary
	if eb == topology.InvalidNode || t.Node(eb).Chiplet != n.Chiplet {
		return topology.InvalidPort, fmt.Errorf("routing: packet %d at %d (chiplet %d) has no egress boundary here", p.ID, cur, n.Chiplet)
	}
	if cur == eb {
		down := n.PortTo(topology.Down)
		if down == topology.InvalidPort {
			return topology.InvalidPort, fmt.Errorf("routing: boundary %d has no down link", cur)
		}
		return down, nil
	}
	return refXY(t, cur, eb)
}

// checkAgainstRef walks every ordered pair of t's routers under h (XY
// over t's routing records) and under the reference, comparing every
// hop's port and error. A pair's walk ends where both give the same
// error. It returns how many pairs ended on a faulty link.
func checkAgainstRef(tb testing.TB, t *topology.Topology, h *routing.Hierarchical) (faulty int) {
	tb.Helper()
	var p message.Packet
	for src := range topology.NodeID(t.NumNodes()) {
		for dst := range topology.NodeID(t.NumNodes()) {
			p = message.Packet{Src: src, Dst: dst}
			routing.Prepare(t, &p, routing.DefaultPolicy{})
			for cur, hops := src, 0; ; hops++ {
				got, err := h.NextPort(cur, &p)
				want, wantErr := refNextPort(t, cur, &p)
				if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					tb.Fatalf("%d -> %d at %d: tables give port %d (%v), reference port %d (%v)", src, dst, cur, got, err, want, wantErr)
				}
				if wantErr != nil {
					if strings.Contains(wantErr.Error(), "XY hit faulty link") {
						faulty++
					}
					break
				}
				if got == topology.LocalPort {
					break
				}
				if hops > 2*t.NumNodes() {
					tb.Fatalf("%d -> %d: routing loop", src, dst)
				}
				cur = t.Node(cur).Ports[got].Neighbor
			}
		}
	}
	return faulty
}

// TestRouteTablesMatchReference holds XY and the hierarchical rules, which
// read the dense routing records, to their case analysis over
// topology.Node: every hop of every ordered pair on the baseline, the
// 512-router scale system, the heterogeneous example and the star system.
func TestRouteTablesMatchReference(t *testing.T) {
	hetero, err := topology.BuildHetero(topology.HeteroExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []struct {
		name string
		topo *topology.Topology
	}{
		{"baseline", topology.MustBuild(topology.BaselineConfig())},
		{"small", topology.MustBuildScale(topology.ScaleSmallConfig())},
		{"hetero", hetero},
		{"star", topology.MustBuild(topology.StarConfig())},
	} {
		t.Run(sys.name, func(t *testing.T) {
			if n := checkAgainstRef(t, sys.topo, routing.NewHierarchical(sys.topo, routing.NewXY(sys.topo))); n != 0 {
				t.Fatalf("%d pairs hit a faulty link on a healthy system", n)
			}
		})
	}
}

// TestRouteTablesFollowFaults kills and revives links mid-run, through
// Network.KillLink/ReviveLink and through the reconfiguration engine
// (its dry run at Attach, its transitions and its restore from a
// snapshot), and holds XY's faulty-port masks to the links after each:
// every pair the reference routes into a faulty link must fail the same
// way under the tables, and a revived link must route again.
func TestRouteTablesFollowFaults(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := network.MustNew(topo, network.DefaultConfig(), network.None{})
	// One interposer and one chiplet mesh link.
	var victims []*topology.Link
	for _, layer := range []int{topology.InterposerChiplet, 0} {
		for _, l := range topo.Links {
			if !l.Vertical && topo.Node(l.A).Chiplet == layer {
				victims = append(victims, l)
				break
			}
		}
	}
	for _, l := range victims {
		n.KillLink(l)
		if checkAgainstRef(t, topo, n.Hier()) == 0 {
			t.Fatalf("no pair crossed killed link %d", l.ID)
		}
	}
	for _, l := range victims {
		n.ReviveLink(l)
	}
	if k := checkAgainstRef(t, topo, n.Hier()); k != 0 {
		t.Fatalf("%d pairs still hit a faulty link after every link revived", k)
	}

	// The engine's path: kill a link at cycle 20 and add it back at 200.
	build := func() (*topology.Topology, *network.Network, *reconfig.Engine) {
		topo := topology.MustBuild(topology.BaselineConfig())
		cfg := network.DefaultConfig()
		cfg.UseUpDown = true
		n := network.MustNew(topo, cfg, network.None{})
		plan, err := faults.ParseSpec(topo, fmt.Sprintf("kill=%d@20,add=%d@200", victims[0].ID, victims[0].ID))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := reconfig.Attach(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		return topo, n, eng
	}
	xy := func(topo *topology.Topology) *routing.Hierarchical {
		return routing.NewHierarchical(topo, routing.NewXY(topo))
	}
	topo, n, eng := build()
	if k := checkAgainstRef(t, topo, xy(topo)); k != 0 {
		t.Fatalf("after the engine's dry run %d pairs hit a faulty link", k)
	}
	n.Run(100)
	if !topo.Links[victims[0].ID].Faulty {
		t.Fatal("the engine has not killed the link by cycle 100")
	}
	if checkAgainstRef(t, topo, xy(topo)) == 0 {
		t.Fatal("no pair crossed the link the engine killed")
	}
	var snap bytes.Buffer
	if err := n.WriteSnapshot(&snap, eng); err != nil {
		t.Fatal(err)
	}
	restored, rn, reng := build()
	if err := rn.ReadSnapshot(snap.Bytes(), reng); err != nil {
		t.Fatal(err)
	}
	if checkAgainstRef(t, restored, xy(restored)) == 0 {
		t.Fatal("no pair crossed the killed link after a restore")
	}
	n.Run(300)
	if !eng.Done() || topo.Links[victims[0].ID].Faulty {
		t.Fatal("the engine has not revived the link by cycle 400")
	}
	if k := checkAgainstRef(t, topo, xy(topo)); k != 0 {
		t.Fatalf("%d pairs still hit a faulty link after the engine revived it", k)
	}
}
