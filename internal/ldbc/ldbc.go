// Package ldbc implements the two LDBC Graphalytics kernels the paper's
// introduction contrasts with the GAP suite (§I): community detection using
// label propagation (CDLP) and local clustering coefficient (LCC). They
// extend the evaluation beyond the six GAP kernels the way the paper's
// "expand these data sets" future work suggests, reusing the same substrate,
// parallel helpers, and verification style.
package ldbc

import (
	"sort"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// CDLP runs synchronous community detection by label propagation, following
// the LDBC Graphalytics specification: every vertex starts in its own
// community; each round every vertex adopts the most frequent label among
// its neighbors (over the undirected structure), breaking ties toward the
// smallest label; after maxRounds rounds the labels are the communities.
// The synchronous update with deterministic tie-breaking makes the result
// identical for any worker count.
func CDLP(g *graph.Graph, maxRounds, workers int) []graph.NodeID {
	n := int(g.NumNodes())
	labels := make([]graph.NodeID, n)
	next := make([]graph.NodeID, n)
	for i := range labels {
		labels[i] = graph.NodeID(i)
	}
	if n == 0 || maxRounds <= 0 {
		return labels
	}

	for round := 0; round < maxRounds; round++ {
		changed := par.ReduceInt64(n, workers, func(lo, hi int) int64 {
			counts := map[graph.NodeID]int{}
			var changedLocal int64
			for v := lo; v < hi; v++ {
				clear(counts)
				for _, u := range g.OutNeighbors(graph.NodeID(v)) {
					counts[labels[u]]++
				}
				if g.Directed() {
					for _, u := range g.InNeighbors(graph.NodeID(v)) {
						counts[labels[u]]++
					}
				}
				best := labels[v]
				bestCount := 0
				for l, c := range counts {
					if c > bestCount || (c == bestCount && l < best) {
						best, bestCount = l, c
					}
				}
				if bestCount == 0 {
					best = labels[v] // isolated vertex keeps its label
				}
				next[v] = best
				if best != labels[v] {
					changedLocal++
				}
			}
			return changedLocal
		})
		labels, next = next, labels
		if changed == 0 {
			break
		}
	}
	return labels
}

// CDLPSerial is the oracle implementation: one goroutine, same semantics.
func CDLPSerial(g *graph.Graph, maxRounds int) []graph.NodeID {
	return CDLP(g, maxRounds, 1)
}

// LCC computes each vertex's local clustering coefficient over the
// undirected structure: the number of edges among its neighbors divided by
// deg*(deg-1)/2. Vertices of degree < 2 score 0, per the LDBC convention.
func LCC(g *graph.Graph, workers int) []float64 {
	u := g.Undirected()
	n := int(u.NumNodes())
	out := make([]float64, n)
	par.ForDynamic(n, 64, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			neigh := u.OutNeighbors(graph.NodeID(v))
			d := len(neigh)
			if d < 2 {
				continue
			}
			// Count edges among neighbors: for each neighbor a, intersect
			// its adjacency with neigh (both sorted). Each neighbor edge
			// {a,b} is seen twice (from a and from b).
			var links int64
			for _, a := range neigh {
				links += intersectCount(neigh, u.OutNeighbors(a))
			}
			out[v] = float64(links) / float64(d*(d-1))
		}
	})
	return out
}

// LCCSerial is the oracle implementation.
func LCCSerial(g *graph.Graph) []float64 { return LCC(g, 1) }

// CommunitySizes returns the community sizes of a labeling, descending.
func CommunitySizes(labels []graph.NodeID) []int {
	counts := map[graph.NodeID]int{}
	for _, l := range labels {
		counts[l]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// intersectCount counts common elements of two sorted lists.
func intersectCount(x, y []graph.NodeID) int64 {
	var count int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}
