package galois

import (
	"sync/atomic"

	"gapbench/internal/graph"
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
					unionCAS(graph.NodeID(u), neigh[r], comp)
				}
			}
		})
	}
	compressLabels(exec, comp)
	giant := mostFrequentLabel(comp)

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
					unionCAS(graph.NodeID(u), neigh[r], comp)
				}
				if g.Directed() {
					for _, v := range g.InNeighbors(graph.NodeID(u)) {
						unionCAS(graph.NodeID(u), v, comp)
					}
				}
			}
		})
	}
	compressLabels(exec, comp)
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
			unionCAS(u, neigh[e], comp)
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

// unionCAS hooks the higher component root onto the lower with CAS loops
// (identical semantics to the GAP reference's Link). The two loads and the
// equality test are the per-edge fast path — once components converge nearly
// every call sees equal labels — and fit the inline budget; the CAS loop
// lives out of line in unionCASSlow, which re-loads under its own loop
// anyway.
func unionCAS(u, v graph.NodeID, comp []graph.NodeID) {
	if atomic.LoadInt32(&comp[u]) != atomic.LoadInt32(&comp[v]) {
		unionCASSlow(u, v, comp)
	}
}

// unionCASSlow repeatedly hooks the higher root onto the lower one with CAS.
// Kept out of line so unionCAS stays under the inline budget; the loads race
// with concurrent hooks either way, and the loop revalidates before every
// CAS.
//
//go:noinline
func unionCASSlow(u, v graph.NodeID, comp []graph.NodeID) {
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

// compressLabels pointer-jumps every label to its root.
func compressLabels(exec *par.Machine, comp []graph.NodeID) {
	exec.ForBlocked(len(comp), 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
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

// mostFrequentLabel samples labels to find the giant component.
func mostFrequentLabel(comp []graph.NodeID) graph.NodeID {
	const samples = 1024
	counts := make(map[graph.NodeID]int, samples)
	n := uint64(len(comp))
	x := uint64(0x853c49e6748fea9b)
	for i := 0; i < samples; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		root := comp[(x>>17)%n]
		for root != comp[root] {
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
