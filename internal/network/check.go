package network

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// CheckQuiescent verifies that an idle network is pristine: every buffer
// empty, every VC idle and unheld, every credit returned, every
// allocation released, every NI queue empty and every ejection
// reservation recycled. Any violation after a drain is a resource leak in
// the datapath or a scheme — tests and the verification tooling call this
// after every workload.
//
// Every port and VC is inspected at every size.
func (n *Network) CheckQuiescent() error {
	for i := range n.Topo.Nodes {
		node := &n.Topo.Nodes[i]
		r := n.Routers[node.ID]
		// The effective per-VC depth is what credits count against —
		// smaller than the budget depth under oq.
		depth := int16(r.Cfg.BufferDepth)
		if r.Buffered() != 0 {
			return fmt.Errorf("network: node %d still buffers %d flits", node.ID, r.Buffered())
		}
		if c := r.UpRouted(); c != [message.NumVNets]int32{} {
			return fmt.Errorf("network: node %d upward census %v not zero", node.ID, c)
		}
		for pi := range node.Ports {
			if staged := r.StagedCount(topology.PortID(pi)); staged != 0 {
				return fmt.Errorf("network: node %d out[%d] still stages %d flits", node.ID, pi, staged)
			}
			for vi := 0; vi < n.Cfg.Router.NumVCs(); vi++ {
				vc := r.VCAt(topology.PortID(pi), vi)
				if vc.State != router.VCIdle || !vc.Empty() {
					return fmt.Errorf("network: node %d in[%d] vc%d not idle", node.ID, pi, vi)
				}
				if vc.Hold {
					return fmt.Errorf("network: node %d in[%d] vc%d held", node.ID, pi, vi)
				}
				if pi == 0 {
					continue
				}
				if c := r.OutCredits(topology.PortID(pi))[vi]; c != depth {
					return fmt.Errorf("network: node %d out[%d] vc%d credits %d != %d", node.ID, pi, vi, c, depth)
				}
				if r.OutBusy(topology.PortID(pi))[vi] {
					return fmt.Errorf("network: node %d out[%d] vc%d allocation leaked", node.ID, pi, vi)
				}
			}
		}
		ni := n.NIs[node.ID]
		if ni.Pending() != 0 {
			return fmt.Errorf("network: NI %d has %d pending items", node.ID, ni.Pending())
		}
		for v := 0; v < message.NumVNets; v++ {
			if got := ni.FreeEjectionEntries(message.VNet(v)); got != ejectionDepth {
				return fmt.Errorf("network: NI %d vnet %d has %d free ejection entries, want %d", node.ID, v, got, ejectionDepth)
			}
			if ni.ReservedEntries(message.VNet(v)) != 0 {
				return fmt.Errorf("network: NI %d vnet %d leaked a reservation", node.ID, v)
			}
		}
	}
	if n.Stats.InjectedFlits != n.Stats.EjectedFlits {
		return fmt.Errorf("network: flit conservation violated: injected %d, ejected %d", n.Stats.InjectedFlits, n.Stats.EjectedFlits)
	}
	return nil
}

// CheckWakeInvariant verifies, between cycles, what the flit-only wake
// rule rests on (DESIGN.md §7): the routers left awake by retirement are
// exactly the ones holding flits, the NIs left awake exactly the ones that
// are not Idle, and each set's population count agrees with its set bits
// (and, for routers, with AwakeRouterIDs). A restore derives both sets from
// this rule instead of reading them. It also holds every router's
// occupancy masks to a recount from its VCs (Router.CheckDerived):
// allocation trusts them as the kernel trusts the awake set. uppdebug
// builds run it after every cycle. The oracle retires nothing, so there is
// nothing to check under it.
func (n *Network) CheckWakeInvariant() error {
	if n.oracle {
		return nil
	}
	routers, nis := 0, 0
	for i, r := range n.Routers {
		id := topology.NodeID(i)
		if err := r.CheckDerived(); err != nil {
			return err
		}
		if n.routers.has(id) == r.Idle() {
			return fmt.Errorf("network: node %d awake=%v after retirement but buffers %d flits", id, n.routers.has(id), r.Buffered())
		}
		if n.routers.has(id) {
			routers++
		}
		if n.nis.has(id) == n.NIs[i].Idle() {
			return fmt.Errorf("network: NI %d awake=%v after retirement but idle=%v", id, n.nis.has(id), n.NIs[i].Idle())
		}
		if n.nis.has(id) {
			nis++
		}
	}
	if routers != n.routers.count || routers != len(n.AwakeRouterIDs()) {
		return fmt.Errorf("network: %d router bits set, population count %d, %d awake router IDs", routers, n.routers.count, len(n.AwakeRouterIDs()))
	}
	if nis != n.nis.count {
		return fmt.Errorf("network: %d NI bits set, population count %d", nis, n.nis.count)
	}
	return nil
}
