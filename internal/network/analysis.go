package network

import (
	"fmt"
	"strings"

	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// VCRef names one virtual channel in the system.
type VCRef struct {
	Node topology.NodeID
	Port topology.PortID
	VC   int
}

// String formats the reference with its router role.
func (v VCRef) String() string {
	return fmt.Sprintf("node%d.in[%d].vc%d", v.Node, v.Port, v.VC)
}

// DependencyCycle is a closed buffer wait-for chain — a routing deadlock
// certificate (the chain of Fig. 1).
type DependencyCycle struct {
	VCs []VCRef
	net *Network
}

// SpansLayers reports whether the cycle crosses between the interposer and
// at least one chiplet — the definition of an integration-induced deadlock.
func (c *DependencyCycle) SpansLayers() bool {
	hasInterposer, hasChiplet := false, false
	for _, v := range c.VCs {
		if c.net.Topo.Node(v.Node).Chiplet == topology.InterposerChiplet {
			hasInterposer = true
		} else {
			hasChiplet = true
		}
	}
	return hasInterposer && hasChiplet
}

// InvolvesUpwardPacket reports whether some VC on the cycle holds a packet
// stalled toward an Up output port — the paper's key claim is that every
// integration-induced deadlock has one.
func (c *DependencyCycle) InvolvesUpwardPacket() bool {
	for _, v := range c.VCs {
		r := c.net.Routers[v.Node]
		vc := r.VCAt(v.Port, v.VC)
		if vc.OutPort == topology.InvalidPort {
			continue
		}
		if r.Node.Ports[vc.OutPort].Dir == topology.Up {
			return true
		}
	}
	return false
}

// Chiplets lists the distinct chiplet indexes the cycle touches
// (InterposerChiplet included when it passes through the interposer).
func (c *DependencyCycle) Chiplets() []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range c.VCs {
		ch := c.net.Topo.Node(v.Node).Chiplet
		if !seen[ch] {
			seen[ch] = true
			out = append(out, ch)
		}
	}
	return out
}

// String renders the chain with the blocked packets.
func (c *DependencyCycle) String() string {
	var b strings.Builder
	for i, v := range c.VCs {
		r := c.net.Routers[v.Node]
		vc := r.VCAt(v.Port, v.VC)
		desc := "?"
		if f, _, ok := vc.Front(); ok {
			dir := "?"
			if vc.OutPort != topology.InvalidPort {
				dir = r.Node.Ports[vc.OutPort].Dir.String()
			}
			desc = fmt.Sprintf("pkt%d(%s)->%s", f.Pkt.ID, f.Pkt.VNet, dir)
		}
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s[%s]", v.String(), desc)
	}
	return b.String()
}

// FindDependencyCycle searches the current wait-for graph over blocked VCs
// for a cycle. A blocked VC waits on the downstream VC(s) whose buffer
// space or allocation it needs:
//
//   - an Active VC without credit waits on its allocated downstream VC;
//   - a Waiting head waits on every busy (or credit-less) downstream VC of
//     its VNet at the routed output port.
//
// It returns nil when no cycle exists (e.g. transient congestion). Call it
// on a wedged network to extract the deadlock certificate.
//
// Under the active-set kernels only the awake routers are scanned: a
// retired router has no buffered flits, so none of its VCs can hold a
// blocked packet or appear in a wait-for edge. On a wedged multi-thousand-
// router system the graph construction therefore costs O(blocked routers),
// not O(total nodes). The naive kernel keeps no awake set and scans
// everything.
//
// The search starts from the blocked VCs in scan order (ascending node,
// port, VC) and follows edges in the order they were found, so a wedged
// network with several cycles always yields the same certificate.
func (n *Network) FindDependencyCycle() *DependencyCycle {
	type key = VCRef
	adj := map[key][]key{}
	var roots []key // the keys of adj, in scan order
	nvc := n.Cfg.Router.NumVCs()
	scan := func(node *topology.Node) {
		r := n.Routers[node.ID]
		for pi := range node.Ports {
			for vi := 0; vi < nvc; vi++ {
				vc := r.VCAt(topology.PortID(pi), vi)
				f, _, ok := vc.Front()
				if !ok || vc.OutPort == topology.InvalidPort || vc.OutPort == topology.LocalPort {
					continue
				}
				from := key{node.ID, topology.PortID(pi), vi}
				nb, nbPort := r.Neighbor(vc.OutPort)
				var waitsOn []key
				switch vc.State {
				case router.VCActive:
					if r.Out[vc.OutPort].Credits[vc.OutVC] <= 0 {
						waitsOn = append(waitsOn, key{nb, nbPort, int(vc.OutVC)})
					}
				case router.VCWaiting:
					for k := 0; k < n.Cfg.Router.VCsPerVNet; k++ {
						dv := n.Cfg.Router.VCIndex(f.Pkt.VNet, k)
						if r.Out[vc.OutPort].Busy[dv] || r.Out[vc.OutPort].Credits[dv] <= 0 {
							waitsOn = append(waitsOn, key{nb, nbPort, dv})
						}
					}
				}
				if len(waitsOn) > 0 {
					adj[from] = waitsOn
					roots = append(roots, from)
				}
			}
		}
	}
	if n.kernel == KernelNaive {
		for i := range n.Topo.Nodes {
			scan(&n.Topo.Nodes[i])
		}
	} else {
		for id := n.routers.next(-1); id >= 0; id = n.routers.next(id) {
			scan(&n.Topo.Nodes[id])
		}
	}
	// DFS cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[key]int{}
	parent := map[key]key{}
	var cycle []key
	var dfs func(u key) bool
	dfs = func(u key) bool {
		color[u] = grey
		for _, v := range adj[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				cycle = []key{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, u := range roots {
		if color[u] == white && dfs(u) {
			break
		}
	}
	if cycle == nil {
		return nil
	}
	return &DependencyCycle{VCs: cycle, net: n}
}
