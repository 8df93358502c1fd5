package gap

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// TriangleCount counts triangles with the GAP reference strategy: operate on
// the undirected view, relabeled by decreasing degree when it is skewed
// enough to pay for it (kernel.Options.TCView: timed in Baseline mode, the
// harness's untimed view in Optimized mode), then count ordered triangles
// (u < v < w) by merge-intersecting sorted adjacency lists.
func TriangleCount(g *graph.Graph, opt kernel.Options) int64 {
	return orderedCount(opt.Exec(), opt.TCView(g))
}

// orderedCount is the GAP reference's OrderedCount: for each vertex u it
// walks only the prefix of neighbors v < u, and for each such v only the
// prefix of v's neighbors w < v, advancing a shared cursor through u's list
// to test membership. Each triangle w < v < u is found exactly once and
// only list prefixes are ever scanned. Dynamic chunking load-balances the
// skewed per-vertex costs.
func orderedCount(exec *par.Machine, u *graph.Graph) int64 {
	n := int(u.NumNodes())
	return exec.ReduceDynamicInt64(n, 64, 0, func(lo, hi int) int64 {
		var count int64
		for a := lo; a < hi; a++ {
			na := u.OutNeighbors(graph.NodeID(a))
			for _, b := range na {
				if b > graph.NodeID(a) {
					break
				}
				nb := u.OutNeighbors(b)
				it := 0
				for _, w := range nb {
					if w > b {
						break
					}
					// b is in na, so the cursor cannot run off the end
					// while *it < w <= b.
					for na[it] < w {
						it++
					}
					if na[it] == w {
						count++
					}
				}
			}
		}
		return count
	})
}

// OrderedCountBench exposes the raw ordered count (no relabeling decision)
// for ablation benchmarks.
func OrderedCountBench(exec *par.Machine, undirected *graph.Graph) int64 {
	return orderedCount(exec, undirected)
}
