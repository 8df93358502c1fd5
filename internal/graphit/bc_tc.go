package graphit

import (
	"sync/atomic"

	"gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// bc is GraphIt's Brandes: the forward traversal tracks frontiers in the
// layout the schedule picks (bitvector by default — "advantageous when there
// are many active elements in the frontier", sparse list for the Optimized
// Road schedule). The sigma and dependency sweeps are the level-ordered
// pulls every other Brandes here runs: the dependency sweep reads each
// vertex's out-edges, as GAP's does. §V-E's transposed backward pass ("GraphIt
// transposes the graph for the backward pass"), a push from each successor
// to its parents over in-edges, is not reproduced.
func bc(exec *par.Machine, g *graph.Graph, sources []graph.NodeID, sched schedule) []float64 {
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

		// Forward: rounds of edgeset-apply keeping one vertex set per level.
		var levels []*frontier.Set
		front := frontier.FromList(int64(n), []graph.NodeID{src})
		if sched.Frontier == frontier.Bitmap {
			front = front.ToBitmap(exec)
		}
		levels = append(levels, front)
		for front.Size() > 0 {
			d := int32(len(levels))
			next := frontier.Push(exec, g, front, sched.Frontier, func(u, v graph.NodeID) bool {
				return atomic.LoadInt32(&depth[v]) < 0 &&
					atomic.CompareAndSwapInt32(&depth[v], -1, d)
			})
			if next.Size() == 0 {
				break
			}
			levels = append(levels, next)
			front = next
		}

		// The sweeps walk each level as a list: convert every level once.
		lists := make([][]graph.NodeID, len(levels))
		for l, set := range levels {
			lists[l] = set.ToList(exec).List()
		}
		kernel.BCSweeps(exec, g, src, lists, 64, depth, sigma, delta, scores)
	}

	return kernel.BCNormalize(scores)
}

// tc is GraphIt's order-invariant triangle count. §V-F notes GraphIt's set
// intersection "is observed to have less branch misprediction": the inner
// merge is written with branch-light arithmetic stepping. Optimized mode on
// small graphs switches back to the naive merge ("Changing back to the naive
// intersection method used in GAP improved performance").
func tc(exec *par.Machine, g *graph.Graph, opt kernel.Options) int64 {
	u := opt.TCView(g)
	naive := opt.Mode == kernel.Optimized && u.NumNodes() < 1<<17
	n := int(u.NumNodes())
	return exec.ReduceDynamicInt64(n, 64, 0, func(lo, hi int) int64 {
		var count int64
		for a := lo; a < hi; a++ {
			na := u.OutNeighbors(graph.NodeID(a))
			// Prefix below the diagonal, like the GAP algorithm GraphIt's
			// generated code mirrors.
			cut := 0
			for cut < len(na) && na[cut] <= graph.NodeID(a) {
				cut++
			}
			pa := na[:cut]
			for _, b := range pa {
				nb := u.OutNeighbors(b)
				cutB := 0
				for cutB < len(nb) && nb[cutB] <= b {
					cutB++
				}
				if naive {
					count += mergeCount(pa, nb[:cutB], -1)
				} else {
					count += mergeCountBranchless(pa, nb[:cutB], -1)
				}
			}
		}
		return count
	})
}

// mergeCount is the standard three-way branch merge intersection.
func mergeCount(x, y []graph.NodeID, floor graph.NodeID) int64 {
	var count int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			if x[i] > floor {
				count++
			}
			i++
			j++
		}
	}
	return count
}

// mergeCountBranchless advances both cursors with comparison arithmetic
// instead of a three-way branch (Inoue et al.'s misprediction-reducing
// formulation GraphIt's generated code uses).
func mergeCountBranchless(x, y []graph.NodeID, floor graph.NodeID) int64 {
	var count int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		xi, yj := x[i], y[j]
		if xi == yj && xi > floor {
			count++
		}
		// Branch-free cursor stepping: bool-to-int advances.
		if xi <= yj {
			i++
		}
		if yj <= xi {
			j++
		}
	}
	return count
}
