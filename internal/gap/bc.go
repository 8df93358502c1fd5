package gap

import (
	"sync"
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// Brandes computes approximate betweenness centrality from the given root
// vertices using Brandes' algorithm with level-synchronous phases: a parallel
// BFS that records per-level frontiers, a pull-based path-count (sigma) pass
// per level, and a reverse dependency accumulation. Pulling sigma over
// in-edges per level makes both passes race-free, the same effect the GAP
// reference gets from its successor bitmaps. Scores are normalized by the
// maximum, matching the reference output.
func Brandes(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	n := int(g.NumNodes())
	exec := opt.Exec()
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}

	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	// One level-gathering appender for all sources: bcForward's chunk
	// closures capture the pointer by value, so no per-source (let alone
	// per-level) heap cell is allocated.
	var sink chunkAppender

	for _, src := range sources {
		exec.ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				//gapvet:ignore atomic-plain-mix -- reset phase: barrier-separated from bcForward's CAS on depth
				depth[i] = -1
				sigma[i] = 0
				delta[i] = 0
			}
		})
		depth[src] = 0
		sigma[src] = 1

		// Forward phase: level-synchronous parallel BFS capturing each level.
		levels := bcForward(exec, g, src, depth, &sink)

		// Sigma phase: per level (in order), each vertex pulls path counts
		// from in-neighbors one level up. Writes are owner-only.
		for l := 1; l < len(levels); l++ {
			level := levels[l]
			exec.ForDynamic(len(level), 128, 0, func(lo, hi int) {
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

		// Backward phase: reverse level order; each vertex folds in its
		// successors' dependencies. Again owner-only writes.
		for l := len(levels) - 2; l >= 0; l-- {
			level := levels[l]
			exec.ForDynamic(len(level), 128, 0, func(lo, hi int) {
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

	// Normalize by the maximum score.
	maxScore := 0.0
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	if maxScore > 0 {
		exec.ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				scores[i] /= maxScore
			}
		})
	}
	return scores
}

// bcForward runs a push-based parallel BFS from src, assigning depths and
// returning the vertices of each level (level 0 is [src]). The appender is
// caller-owned and the per-level frontier is captured by value, so a round
// allocates nothing beyond its chunk buffers.
func bcForward(exec *par.Machine, g *graph.Graph, src graph.NodeID, depth []int32, sink *chunkAppender) [][]graph.NodeID {
	levels := [][]graph.NodeID{{src}}
	current := levels[0]
	for len(current) > 0 {
		d := int32(len(levels))
		cur := current // read-only in the closure: captured by value
		sink.reset()
		exec.ForDynamic(len(cur), 64, 0, func(lo, hi int) {
			//gapvet:ignore alloc-in-timed-region -- GAP QueueBuffer idiom: one buffer per 64-vertex chunk, amortized over the chunk's edges
			local := make([]graph.NodeID, 0, 256)
			for i := lo; i < hi; i++ {
				u := cur[i]
				for _, v := range g.OutNeighbors(u) {
					if atomic.LoadInt32(&depth[v]) < 0 &&
						atomic.CompareAndSwapInt32(&depth[v], -1, d) {
						local = append(local, v)
					}
				}
			}
			sink.flush(local)
		})
		next := sink.take()
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
		current = next
	}
	return levels
}

// chunkAppender gathers per-chunk local buffers into one slice with a single
// lock per flush (cheap relative to the per-edge work it amortizes).
type chunkAppender struct {
	mu  sync.Mutex
	out []graph.NodeID
}

func (c *chunkAppender) reset() { c.out = nil }

func (c *chunkAppender) flush(local []graph.NodeID) {
	if len(local) == 0 {
		return
	}
	c.mu.Lock()
	c.out = append(c.out, local...)
	c.mu.Unlock()
}

func (c *chunkAppender) take() []graph.NodeID { return c.out }
