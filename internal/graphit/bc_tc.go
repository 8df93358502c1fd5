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
// Road schedule), and the backward pass walks the transposed graph (§V-E:
// "GraphIt transposes the graph for the backward pass"): dependencies are
// pushed from each successor to its parents over in-edges.
func bc(exec *par.Machine, g *graph.Graph, sources []graph.NodeID, sched Schedule, workers int) []float64 {
	n := int(g.NumNodes())
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}
	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)

	for _, src := range sources {
		src := src // assigned-once copy: the phase closures capture it by value, not as a heap cell
		exec.ForBlocked(n, workers, func(lo, hi int) {
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
			front = front.ToBitmap(exec, workers)
		}
		levels = append(levels, front)
		for front.Size() > 0 {
			d := int32(len(levels))
			next := frontier.Push(exec, g, front, sched.Frontier, workers, func(u, v graph.NodeID) bool {
				return atomic.LoadInt32(&depth[v]) < 0 &&
					atomic.CompareAndSwapInt32(&depth[v], -1, d)
			})
			if next.Size() == 0 {
				break
			}
			levels = append(levels, next)
			front = next
		}

		// Path counts per level (pull from parents over in-edges).
		for l := 1; l < len(levels); l++ {
			level := levels[l].ToList(exec, workers).List()
			exec.ForDynamic(len(level), 64, workers, func(lo, hi int) {
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

		// Backward over the transpose: each level-d vertex pushes its
		// dependency share to parents through in-edges; parents gather.
		for l := len(levels) - 2; l >= 0; l-- {
			level := levels[l].ToList(exec, workers).List()
			exec.ForDynamic(len(level), 64, workers, func(lo, hi int) {
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

	maxScore := 0.0
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	if maxScore > 0 {
		exec.ForBlocked(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				scores[i] /= maxScore
			}
		})
	}
	return scores
}

// tc is GraphIt's order-invariant triangle count. §V-F notes GraphIt's set
// intersection "is observed to have less branch misprediction": the inner
// merge is written with branch-light arithmetic stepping. Optimized mode on
// small graphs switches back to the naive merge ("Changing back to the naive
// intersection method used in GAP improved performance").
func tc(exec *par.Machine, g *graph.Graph, opt kernel.Options, workers int) int64 {
	u := opt.Undirected(g)
	if opt.Mode == kernel.Optimized && opt.RelabeledView != nil {
		u = opt.RelabeledView
	} else if graph.SkewedDegrees(u) {
		ur, _ := graph.DegreeRelabel(exec, u)
		u = ur
	}
	naive := opt.Mode == kernel.Optimized && u.NumNodes() < 1<<17
	n := int(u.NumNodes())
	return exec.ReduceDynamicInt64(n, 64, workers, func(lo, hi int) int64 {
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
