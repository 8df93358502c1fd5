package gap

import (
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// afforestNeighborRounds is the number of initial per-vertex neighbor links
// (the "subgraph sampling" phase of Sutton et al.'s Afforest).
const afforestNeighborRounds = 2

// Afforest labels weakly connected components with the Afforest algorithm
// (Sutton, Ben-Nun, Barak — IPDPS'18): link a couple of neighbors per vertex,
// identify the giant component by sampling, then finish only the vertices
// outside it. On most graphs the final phase touches almost nothing, giving
// the near-O(V) behaviour §V-C contrasts against label propagation.
func Afforest(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	n := int(g.NumNodes())
	exec := opt.Exec()
	comp := make([]graph.NodeID, n)
	for i := range comp {
		comp[i] = graph.NodeID(i)
	}
	if n == 0 {
		return comp
	}

	// Phase 1: subgraph sampling — link each vertex to its first few
	// neighbors only.
	for r := 0; r < afforestNeighborRounds; r++ {
		exec.ForDynamic(n, 256, 0, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				neigh := g.OutNeighbors(graph.NodeID(u))
				if r < len(neigh) {
					kernel.Link(graph.NodeID(u), neigh[r], comp)
				}
			}
		})
	}
	kernel.Compress(exec, comp)

	// Phase 2: find the (very likely) giant component by sampling.
	giant := kernel.GiantLabel(comp)

	// Phase 3: finish everything outside the giant component with the
	// remaining out-edges (and in-edges for directed graphs, since weak
	// connectivity ignores direction).
	exec.ForDynamic(n, 256, 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if atomic.LoadInt32(&comp[u]) == giant {
				continue
			}
			neigh := g.OutNeighbors(graph.NodeID(u))
			for r := afforestNeighborRounds; r < len(neigh); r++ {
				kernel.Link(graph.NodeID(u), neigh[r], comp)
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(graph.NodeID(u)) {
					kernel.Link(graph.NodeID(u), v, comp)
				}
			}
		}
	})
	kernel.Compress(exec, comp)
	return comp
}
