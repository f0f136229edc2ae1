package topology

import (
	"fmt"

	"uppnoc/internal/sim"
)

// InjectFaults marks n randomly chosen mesh links faulty (Fig. 11's faulty
// systems), never breaking connectivity of any layer and never touching
// vertical links (a dead vertical link would partition inter-chiplet
// traffic for chiplets with a single boundary router; the paper faults the
// mesh fabric). The choice is deterministic in seed. It returns the faulted
// links.
func (t *Topology) InjectFaults(n int, seed uint64) ([]*Link, error) {
	faulted := t.faultLinks(sim.NewRNG(seed), n, func(*Link) bool { return true })
	if len(faulted) < n {
		t.heal(faulted)
		return nil, fmt.Errorf("topology: could only fault %d of %d links without disconnecting a layer", len(faulted), n)
	}
	return faulted, nil
}

// InjectFaultsPerLayer marks n mesh links faulty in every layer — the
// interposer and each chiplet — never disconnecting a layer and never
// touching vertical links (same rules as InjectFaults, applied per layer
// instead of globally; the fault-sweep robustness figure uses it to put
// uniform pressure on every mesh). Deterministic in seed. It returns all
// faulted links; on error no link is left faulty.
func (t *Topology) InjectFaultsPerLayer(n int, seed uint64) ([]*Link, error) {
	if n <= 0 {
		return nil, nil
	}
	rng := sim.NewRNG(seed)
	var all []*Link
	for layer := InterposerChiplet; layer < len(t.Chiplets); layer++ {
		faulted := t.faultLinks(rng, n, func(l *Link) bool { return t.Node(l.A).Chiplet == layer })
		all = append(all, faulted...)
		if len(faulted) < n {
			t.heal(all)
			return nil, fmt.Errorf("topology: could only fault %d of %d links in layer %d without disconnecting it", len(faulted), n, layer)
		}
	}
	return all, nil
}

// faultLinks is the one fault-placement loop: it shuffles the healthy mesh
// links that in accepts with rng, then marks them faulty in that order,
// keeping each only if its layer stays connected, until n are faulty. It
// returns the links it faulted, fewer than n if the layers ran out.
func (t *Topology) faultLinks(rng *sim.RNG, n int, in func(*Link) bool) []*Link {
	candidates := make([]*Link, 0, len(t.Links))
	for _, l := range t.Links {
		if !l.Vertical && !l.Faulty && in(l) {
			candidates = append(candidates, l)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	var faulted []*Link
	for _, l := range candidates {
		if len(faulted) == n {
			break
		}
		t.SetFaulty(l, true)
		if t.LayerConnected(t.Node(l.A).Chiplet) {
			faulted = append(faulted, l)
		} else {
			t.SetFaulty(l, false)
		}
	}
	return faulted
}

// heal marks links healthy.
func (t *Topology) heal(links []*Link) {
	for _, l := range links {
		t.SetFaulty(l, false)
	}
}

// ClearFaults restores every link to healthy.
func (t *Topology) ClearFaults() { t.heal(t.Links) }

// LayerNodes returns the router IDs of one layer: a chiplet index, or
// InterposerChiplet for the interposer.
func (t *Topology) LayerNodes(chiplet int) []NodeID {
	if chiplet == InterposerChiplet {
		return t.Interposer
	}
	return t.Chiplets[chiplet].Routers
}

// LayerConnected reports whether the given layer's healthy mesh links form
// a connected graph over the layer's routers.
func (t *Topology) LayerConnected(chiplet int) bool {
	nodes := t.LayerNodes(chiplet)
	if len(nodes) == 0 {
		return true
	}
	visited := make(map[NodeID]bool, len(nodes))
	queue := []NodeID{nodes[0]}
	visited[nodes[0]] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := t.Node(id)
		for pi := 1; pi < len(n.Ports); pi++ {
			p := &n.Ports[pi]
			if p.Link.Faulty || p.Link.Vertical {
				continue
			}
			if !visited[p.Neighbor] {
				visited[p.Neighbor] = true
				queue = append(queue, p.Neighbor)
			}
		}
	}
	return len(visited) == len(nodes)
}

// NumFaulty returns the number of currently faulty links.
func (t *Topology) NumFaulty() int {
	n := 0
	for _, l := range t.Links {
		if l.Faulty {
			n++
		}
	}
	return n
}
