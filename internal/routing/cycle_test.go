package routing

import (
	"slices"
	"testing"
)

// TestFindCycle pins the search's contract: depth first from each root in
// order, successors in the order given, the cycle returned from the vertex
// the search closed it on, nil on an acyclic graph.
func TestFindCycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		roots []int
		adj   map[int][]int
		want  []int
	}{
		{"acyclic", []int{0, 1}, map[int][]int{0: {1, 2}, 1: {2}}, nil},
		{"self loop", []int{0}, map[int][]int{0: {1}, 1: {1}}, []int{1}},
		// 0 -> 1 -> 2 -> 3 -> 1 closes at 1, after the dead end 0 -> 4.
		{"closes mid-path", []int{0}, map[int][]int{0: {4, 1}, 1: {2}, 2: {3}, 3: {1}}, []int{1, 2, 3}},
		// Successor order decides where the search enters the cycle.
		{"successor order", []int{0}, map[int][]int{0: {2, 1}, 1: {2}, 2: {3}, 3: {1}}, []int{2, 3, 1}},
		// Two cycles: the one reachable from the first root wins.
		{"root order", []int{5, 0}, map[int][]int{0: {1}, 1: {0}, 5: {6}, 6: {5}}, []int{5, 6}},
		{"unreachable", []int{0}, map[int][]int{1: {2}, 2: {1}}, nil},
	} {
		got := FindCycle(tc.roots, func(u int) []int { return tc.adj[u] })
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := SortedKeys(map[int]bool{3: true, 1: true, 2: false}); !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("SortedKeys: got %v", got)
	}
}
