package kernel

import (
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// The union-find phases of Afforest (Sutton, Ben-Nun, Barak — IPDPS'18),
// which Table III gives GAP, Galois and NWGraph alike. Each framework keeps
// its own phase order and scheduling (which edges it links, in what chunks,
// over which abstraction) and calls these for the phases themselves; GKC's
// Shiloach-Vishkin and GraphIt's label propagation share the pointer-jump
// pass. A label array comp starts as the identity, every hook puts the
// higher root under the lower one, so a compressed label is always its
// component's minimum vertex id.

// Link unions the components of u and v. The two loads and the equality
// test are the per-edge fast path — once components converge nearly every
// call sees equal labels — and fit the inline budget, so every framework's
// call site inlines it; the CAS hook loop lives out of line in linkSlow,
// which re-loads under its own loop anyway.
func Link(u, v graph.NodeID, comp []graph.NodeID) {
	if atomic.LoadInt32(&comp[u]) != atomic.LoadInt32(&comp[v]) {
		linkSlow(u, v, comp)
	}
}

// linkSlow repeatedly hooks the higher root onto the lower one with CAS
// (the lock-free union of Afforest and modern Shiloach-Vishkin variants).
// Kept out of line so Link stays under the inline budget; the loads race
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

// Compress pointer-jumps every label to its root in one ForBlocked region,
// so every vertex points directly at its component's root. The atomic
// accesses keep the jumping well-defined under the Go memory model when
// ranges race on shared ancestors.
func Compress(exec *par.Machine, comp []graph.NodeID) {
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

// GiantLabel samples 1024 labels, follows each to its current root, and
// returns the most frequent root (the smallest on a tie) — Afforest's
// probable giant component, whose vertices the finishing phase skips. The
// probe sequence is a fixed linear-congruential walk, so the pick is
// deterministic for a given comp; which component it names never changes
// the labels, only how much the finish skips.
func GiantLabel(comp []graph.NodeID) graph.NodeID {
	const samples = 1024
	counts := make(map[graph.NodeID]int, samples)
	n := uint64(len(comp))
	x := uint64(0x9e3779b97f4a7c15)
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
		if k > bestCount || k == bestCount && c < best {
			best, bestCount = c, k
		}
	}
	return best
}
