package routing

import (
	"fmt"

	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// This file provides alternative egress-boundary policies used by the
// ablation experiments. The paper argues (Sec. V-D) that the static
// closest-boundary binding beats dynamic or arbitrary choices: any other
// selection sends packets through more distant boundary routers,
// lengthening paths and reducing throughput. The ablations quantify that
// argument by swapping only this policy while keeping everything else
// fixed.

// BindingPolicy resolves an egress-binding name to a fresh policy: "" is
// the paper's static closest binding (DefaultPolicy), "random", "farthest"
// and "single_boundary" the alternatives below. Every "random" policy
// draws from its own stream seeded 99, so each network that resolves the
// name starts the same sequence.
func BindingPolicy(name string) (BoundaryPolicy, error) {
	switch name {
	case "":
		return DefaultPolicy{}, nil
	case "random":
		return NewRandomEgressPolicy(99), nil
	case "farthest":
		return FarthestEgressPolicy{}, nil
	case "single_boundary":
		return SingleEgressPolicy{}, nil
	}
	return nil, fmt.Errorf("routing: unknown boundary binding %q (known: \"\" for static closest, random, farthest, single_boundary)", name)
}

// RandomEgressPolicy picks a uniformly random boundary router of the
// source chiplet per packet — the "dynamic binding" strawman of Sec. V-D.
// It preserves deadlock-recovery correctness (ingress stays statically
// bound, so UPP's signal-contention argument still holds) but routes many
// packets through distant boundaries.
type RandomEgressPolicy struct {
	rng *sim.RNG
}

// NewRandomEgressPolicy builds the policy with its own random stream.
func NewRandomEgressPolicy(seed uint64) *RandomEgressPolicy {
	return &RandomEgressPolicy{rng: sim.NewRNG(seed)}
}

// EgressBoundary implements BoundaryPolicy.
func (p *RandomEgressPolicy) EgressBoundary(t *topology.Topology, src, dst topology.NodeID) topology.NodeID {
	ch := &t.Chiplets[t.Node(src).Chiplet]
	return ch.Boundary[p.rng.Intn(len(ch.Boundary))]
}

// FarthestEgressPolicy picks the boundary router farthest from the source
// — the adversarial bound on binding quality.
type FarthestEgressPolicy struct{}

// EgressBoundary implements BoundaryPolicy.
func (FarthestEgressPolicy) EgressBoundary(t *topology.Topology, src, dst topology.NodeID) topology.NodeID {
	n := t.Node(src)
	ch := &t.Chiplets[n.Chiplet]
	best := ch.Boundary[0]
	bestD := -1
	for _, b := range ch.Boundary {
		bn := t.Node(b)
		d := absInt(n.X-bn.X) + absInt(n.Y-bn.Y)
		if d > bestD {
			bestD = d
			best = b
		}
	}
	return best
}

// SingleEgressPolicy funnels all inter-chiplet traffic of a chiplet
// through its first boundary router — the extreme concentration the
// composable baseline tends toward (Sec. III-B's "all packets via
// boundary router 2" observation).
type SingleEgressPolicy struct{}

// EgressBoundary implements BoundaryPolicy.
func (SingleEgressPolicy) EgressBoundary(t *topology.Topology, src, dst topology.NodeID) topology.NodeID {
	return t.Chiplets[t.Node(src).Chiplet].Boundary[0]
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
