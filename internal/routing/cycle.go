package routing

import (
	"cmp"
	"slices"
)

// FindCycle is the one cycle search over a dependency graph: the wait-for
// graph of a wedged network (the deadlock certificate), composable
// routing's channel dependency graph and the union CDG of a routing
// transition all go through it. It searches depth first from each of
// roots in turn, following the order succ lists each vertex's successors
// in, and returns the first cycle it closes: the vertex the search
// reached a second time, then the path from it to the vertex whose edge
// closed the cycle. It returns nil when no cycle is reachable from roots.
// With roots and successors in a fixed order the result is deterministic.
func FindCycle[K comparable](roots []K, succ func(K) []K) []K {
	const (
		white = iota // not reached yet
		grey         // on the search path
		black        // finished: no cycle through it
	)
	color := map[K]uint8{}
	var path []K
	var visit func(u K) []K
	visit = func(u K) []K {
		color[u] = grey
		path = append(path, u)
		for _, v := range succ(u) {
			switch color[v] {
			case white:
				if cyc := visit(v); cyc != nil {
					return cyc
				}
			case grey:
				i := len(path) - 1
				for path[i] != v {
					i--
				}
				return slices.Clone(path[i:])
			}
		}
		path = path[:len(path)-1]
		color[u] = black
		return nil
	}
	for _, r := range roots {
		if color[r] == white {
			if cyc := visit(r); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// SortedKeys returns m's keys in ascending order: the fixed order that a
// map-backed graph hands FindCycle its roots and successors in.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
