// Package mutate is a gapvet test fixture (never built): it stores through
// CSR memory derived from *graph.Graph in every way the write-set lattice
// tracks — a direct alias, an in-place sort, a parameter passed to a storing
// helper, and a slice escaping through a return value — plus one clean
// copy-first control that must stay finding-free.
package mutate

import (
	"sort"

	"gapbench/internal/graph"
)

// RelabelInPlace stores through a direct accessor alias.
func RelabelInPlace(g *graph.Graph, u graph.NodeID) {
	neigh := g.OutNeighbors(u)
	neigh[0] = neigh[0] + 1
}

// SortNeighbors sorts an accessor slice in place.
func SortNeighbors(g *graph.Graph, u graph.NodeID) {
	ns := g.OutNeighbors(u)
	sort.Slice(ns, func(i, j int) bool { return ns[i] > ns[j] })
}

// zeroWeights stores through its parameter; innocent alone, convicted at the
// call site that binds it to graph memory.
func zeroWeights(ws []graph.Weight) {
	for i := range ws {
		ws[i] = 0
	}
}

// ZeroAll hands graph-derived weights to the storing helper.
func ZeroAll(g *graph.Graph, u graph.NodeID) {
	zeroWeights(g.OutWeights(u))
}

// firstOut leaks graph memory through its return value.
func firstOut(g *graph.Graph) []graph.NodeID {
	return g.OutNeighbors(0)
}

// TruncateFirst stores through the escaped slice two hops from the accessor.
func TruncateFirst(g *graph.Graph) {
	head := firstOut(g)[:1]
	head[0] = -1
}

// CopyAndSort is the clean control: copying into fresh memory launders the
// graph origin, so the in-place sort below is legal.
func CopyAndSort(g *graph.Graph, u graph.NodeID) []graph.NodeID {
	ns := g.OutNeighbors(u)
	own := make([]graph.NodeID, len(ns))
	copy(own, ns)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	return own
}
