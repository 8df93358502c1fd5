package gap

import (
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
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
					link(graph.NodeID(u), neigh[r], comp)
				}
			}
		})
	}
	compress(exec, comp)

	// Phase 2: find the (very likely) giant component by sampling.
	giant := sampleFrequentComponent(comp)

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
				link(graph.NodeID(u), neigh[r], comp)
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(graph.NodeID(u)) {
					link(graph.NodeID(u), v, comp)
				}
			}
		}
	})
	compress(exec, comp)
	return comp
}

// link unions the components of u and v. The two loads and the equality
// test are the per-edge fast path — once components converge nearly every
// call sees equal labels — and fit the inline budget; the CAS hook loop
// lives out of line in linkSlow, which re-loads under its own loop anyway.
func link(u, v graph.NodeID, comp []graph.NodeID) {
	if atomic.LoadInt32(&comp[u]) != atomic.LoadInt32(&comp[v]) {
		linkSlow(u, v, comp)
	}
}

// linkSlow repeatedly hooks the higher root onto the lower one with CAS
// (the lock-free union of Afforest and modern Shiloach-Vishkin variants).
// Kept out of line so link stays under the inline budget; the loads race
// with concurrent hooks either way, and the loop revalidates before every
// CAS.
//
//go:noinline
func linkSlow(u, v graph.NodeID, comp []graph.NodeID) {
	p1 := atomic.LoadInt32(&comp[u])
	p2 := atomic.LoadInt32(&comp[v])
	for p1 != p2 {
		high, low := p1, p2
		if high < low {
			high, low = low, high
		}
		pHigh := atomic.LoadInt32(&comp[high])
		if pHigh == low {
			break
		}
		if pHigh == high && atomic.CompareAndSwapInt32(&comp[high], high, low) {
			break
		}
		p1 = atomic.LoadInt32(&comp[atomic.LoadInt32(&comp[high])])
		p2 = atomic.LoadInt32(&comp[low])
	}
}

// compress performs full pointer-jumping so every vertex points directly at
// its component root.
func compress(exec *par.Machine, comp []graph.NodeID) {
	exec.ForBlocked(len(comp), 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			// Atomic accesses keep the pointer jumping well-defined under the
			// Go memory model even when ranges race on shared ancestors.
			c := atomic.LoadInt32(&comp[u])
			for {
				cc := atomic.LoadInt32(&comp[c])
				if c == cc {
					break
				}
				c = cc
			}
			atomic.StoreInt32(&comp[u], c)
		}
	})
}

// sampleFrequentComponent samples component labels and returns the most
// frequent one — the probable giant component. The probe sequence is a fixed
// linear-congruential walk so results are deterministic.
func sampleFrequentComponent(comp []graph.NodeID) graph.NodeID {
	const samples = 1024
	counts := make(map[graph.NodeID]int, samples)
	n := uint64(len(comp))
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < samples; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		u := (x >> 17) % n
		root := comp[u]
		for root != comp[root] { // follow to the current root
			root = comp[root]
		}
		counts[root]++
	}
	best, bestCount := graph.NodeID(0), -1
	for c, k := range counts {
		if k > bestCount {
			best, bestCount = c, k
		}
	}
	return best
}
