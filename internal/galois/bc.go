package galois

import (
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// brandes computes approximate betweenness centrality from the given roots.
// The forward depth assignment runs asynchronously (no level barriers) when
// asyncForward is set — the Galois variant that pays off on high-diameter
// graphs — and level-synchronously otherwise. Path counting and dependency
// accumulation are level-ordered passes in both cases; unlike GAP, no
// successor bitmap is kept, which is the overhead §V-E cites ("GAP is faster
// because it saves the list of successors for each vertex using a bitmap").
func brandes(exec *par.Machine, g *graph.Graph, sources []graph.NodeID, asyncForward bool) []float64 {
	n := int(g.NumNodes())
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}
	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)

	for _, src := range sources {
		exec.ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				//gapvet:ignore atomic-plain-mix -- reset phase: barrier-separated from the forward phase's CAS on depth
				depth[i] = -1
				sigma[i] = 0
				delta[i] = 0
			}
		})
		depth[src] = 0
		sigma[src] = 1

		var levels [][]graph.NodeID
		if asyncForward {
			levels = forwardAsync(exec, g, src, depth)
		} else {
			levels = forwardSync(exec, g, src, depth)
		}

		kernel.BCSweeps(exec, g, src, levels, chunkSize, depth, sigma, delta, scores)
	}

	return kernel.BCNormalize(scores)
}

// forwardAsync assigns BFS depths with the asynchronous ordered executor,
// then buckets vertices into levels with one scan.
func forwardAsync(exec *par.Machine, g *graph.Graph, src graph.NodeID, depth []int32) [][]graph.NodeID {
	n := int(g.NumNodes())
	ForEachOrdered(exec, []graph.NodeID{src}, 0, func(ctx *PCtx, u graph.NodeID) {
		du := atomic.LoadInt32(&depth[u])
		nd := du + 1
		for _, v := range g.OutNeighbors(u) {
			old := atomic.LoadInt32(&depth[v])
			for old < 0 || nd < old {
				if atomic.CompareAndSwapInt32(&depth[v], old, nd) {
					ctx.Push(v, int(nd))
					break
				}
				old = atomic.LoadInt32(&depth[v])
			}
		}
	})
	maxDepth := int32(0)
	for v := 0; v < n; v++ {
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	levels := make([][]graph.NodeID, maxDepth+1)
	for v := 0; v < n; v++ {
		if d := depth[v]; d >= 0 {
			levels[d] = append(levels[d], graph.NodeID(v))
		}
	}
	return levels
}

// forwardSync assigns depths with a level-synchronous parallel BFS, keeping
// each level as it forms.
func forwardSync(exec *par.Machine, g *graph.Graph, src graph.NodeID, depth []int32) [][]graph.NodeID {
	levels := [][]graph.NodeID{{src}}
	current := levels[0]
	for len(current) > 0 {
		if exec.Interrupted() {
			break // partial levels; the harness discards cancelled trials
		}
		d := int32(len(levels))
		cur := current // read-only in the closure: captured by value
		collected := &bag{}
		exec.ForDynamic(len(cur), chunkSize, 0, func(lo, hi int) {
			local := newChunk()
			for i := lo; i < hi; i++ {
				u := cur[i]
				for _, v := range g.OutNeighbors(u) {
					if atomic.LoadInt32(&depth[v]) < 0 &&
						atomic.CompareAndSwapInt32(&depth[v], -1, d) {
						if local.n == chunkSize {
							//gapvet:ignore inline-miss -- overflow branch: reached once per chunkSize pushes, amortized across the chunk
							collected.put(local)
							local = newChunk()
						}
						local.items[local.n] = v
						local.n++
					}
				}
			}
			collected.put(local)
		})
		next := drainBag(collected, nil)
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
		current = next
	}
	return levels
}
