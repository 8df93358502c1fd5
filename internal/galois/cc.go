package galois

import (
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// afforest labels weakly connected components with Afforest — the same
// algorithm as the GAP reference (Table III), expressed with Galois'
// dynamic, work-stolen scheduling. The paper highlights that Galois' general
// operator formulation is what allows it to host a non-vertex-program
// algorithm like Afforest at all (§III-B). When edgeBlocked is set, the
// final phase walks blocks of the edge array instead of per-vertex ranges —
// the Optimized-mode variant that wins on Web "due to better load balancing"
// (§V-C).
func afforest(exec *par.Machine, g *graph.Graph, edgeBlocked bool) []graph.NodeID {
	n := int(g.NumNodes())
	comp := make([]graph.NodeID, n)
	for i := range comp {
		comp[i] = graph.NodeID(i)
	}
	if n == 0 {
		return comp
	}

	const neighborRounds = 2
	for r := 0; r < neighborRounds; r++ {
		exec.ForDynamic(n, chunkSize, 0, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				neigh := g.OutNeighbors(graph.NodeID(u))
				if r < len(neigh) {
					kernel.Link(graph.NodeID(u), neigh[r], comp)
				}
			}
		})
	}
	kernel.Compress(exec, comp)
	giant := kernel.GiantLabel(comp)

	if edgeBlocked {
		finishEdgeBlocked(exec, g, comp, giant)
	} else {
		exec.ForDynamic(n, chunkSize, 0, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if atomic.LoadInt32(&comp[u]) == giant {
					continue
				}
				neigh := g.OutNeighbors(graph.NodeID(u))
				for r := neighborRounds; r < len(neigh); r++ {
					kernel.Link(graph.NodeID(u), neigh[r], comp)
				}
				if g.Directed() {
					for _, v := range g.InNeighbors(graph.NodeID(u)) {
						kernel.Link(graph.NodeID(u), v, comp)
					}
				}
			}
		})
	}
	kernel.Compress(exec, comp)
	return comp
}

// finishEdgeBlocked runs Afforest's final phase over fixed-size blocks of
// the out-edge (and, for directed graphs, in-edge) arrays so a single
// high-degree vertex is spread across many work units.
func finishEdgeBlocked(exec *par.Machine, g *graph.Graph, comp []graph.NodeID, giant graph.NodeID) {
	const neighborRounds = 2
	index, neigh := g.RawOut()
	n := int32(g.NumNodes())
	linkBlock := func(index []int64, neigh []graph.NodeID, lo, hi int64, skipFirst bool) {
		// Locate the row containing edge lo by binary search, then walk.
		u := int32(searchRow(index, lo))
		for e := lo; e < hi; e++ {
			for index[u+1] <= e {
				u++
			}
			if skipFirst && e < index[u]+neighborRounds {
				continue // first neighborRounds edges were linked in phase 1
			}
			if atomic.LoadInt32(&comp[u]) == giant {
				continue
			}
			kernel.Link(u, neigh[e], comp)
		}
	}
	m := index[n]
	exec.ForDynamic(int(m), 4096, 0, func(lo, hi int) {
		linkBlock(index, neigh, int64(lo), int64(hi), true)
	})
	if g.Directed() {
		inIndex, inNeigh := g.RawIn()
		mIn := inIndex[n]
		exec.ForDynamic(int(mIn), 4096, 0, func(lo, hi int) {
			linkBlock(inIndex, inNeigh, int64(lo), int64(hi), false)
		})
	}
}

// searchRow returns the row whose edge range contains edge position e.
func searchRow(index []int64, e int64) int {
	lo, hi := 0, len(index)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if index[mid] <= e {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
