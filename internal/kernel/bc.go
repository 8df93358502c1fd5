package kernel

import (
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// BCSweeps runs the two level sweeps of Brandes' algorithm that Table III
// gives GAP, Galois, GKC and GraphIt alike, once a forward search from src
// has set depth (-1 for unreached vertices) and grouped the reached vertices
// by depth in levels (levels[0] is [src]). The sigma sweep walks the levels
// in order and each vertex pulls its shortest-path count from its
// in-neighbours one level up. The dependency sweep walks them in reverse and
// each vertex folds in its out-neighbours' dependencies one level down,
// adding its own to scores unless it is src. Every write is the owner's, so
// neither sweep needs an atomic. Each level is one ForDynamic region of
// chunk-vertex chunks; chunk is the framework's own.
//
// The sweeps read sigma and delta only of vertices in levels, and write each
// entry before reading it except sigma[src], which must be 1, and delta on
// the deepest level, which must be 0.
func BCSweeps(exec *par.Machine, g *graph.Graph, src graph.NodeID, levels [][]graph.NodeID, chunk int,
	depth []int32, sigma, delta, scores []float64) {
	for l := 1; l < len(levels); l++ {
		level := levels[l]
		exec.ForDynamic(len(level), chunk, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := level[i]
				var s float64
				for _, u := range g.InNeighbors(v) {
					if depth[u] == depth[v]-1 {
						s += sigma[u]
					}
				}
				sigma[v] = s
			}
		})
	}
	for l := len(levels) - 2; l >= 0; l-- {
		level := levels[l]
		exec.ForDynamic(len(level), chunk, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := level[i]
				var d float64
				for _, v := range g.OutNeighbors(u) {
					if depth[v] == depth[u]+1 {
						d += sigma[u] / sigma[v] * (1 + delta[v])
					}
				}
				delta[u] = d
				if u != src {
					scores[u] += d
				}
			}
		})
	}
}

// BCNormalize divides BC scores by their maximum, the GAP reference's output
// convention, and returns them; an all-zero vector is left as it is. It runs
// once per call, after the last root, serially: a region here would add a
// launch to every trial for an O(n) pass the root traversals dwarf.
func BCNormalize(scores []float64) []float64 {
	maxScore := 0.0
	for _, s := range scores {
		maxScore = max(maxScore, s)
	}
	if maxScore > 0 {
		for i := range scores {
			scores[i] /= maxScore
		}
	}
	return scores
}
