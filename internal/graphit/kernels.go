package graphit

import (
	"math"
	"sync/atomic"

	"gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// bfs is the GraphIt BFS: edgeset-apply rounds with the traversal direction
// chosen by the schedule (DirOpt per-round via the shared Beamer dispatcher,
// or PushOnly for the Optimized Road schedule that skips the active-vertex
// counting overhead, §V-A).
func bfs(exec *par.Machine, g *graph.Graph, src graph.NodeID, sched Schedule, workers int) []graph.NodeID {
	n := int64(g.NumNodes())
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent
	}
	parent[src] = src
	front := frontier.FromList(n, []graph.NodeID{src})
	disp := frontier.NewDispatcher(n, g.NumEdges(), g.OutDegree(src))
	// One scout accumulator for the whole search: the apply closure captures
	// the pointer by value, so no per-round heap cell is allocated.
	newScout := new(atomic.Int64)

	for front.Size() > 0 {
		if exec.Interrupted() {
			return parent // partial; the harness discards cancelled trials
		}
		usePull := sched.Direction == PullOnly ||
			(sched.Direction == DirOpt && disp.UsePull())
		if usePull {
			awake := front.Size()
			cur := front.ToBitmap(exec, workers)
			for {
				if exec.Interrupted() {
					return parent
				}
				prev := awake
				next := frontier.Pull(exec, g, cur, workers,
					//gapvet:ignore atomic-plain-mix -- pull phase: each v writes only parent[v]; barrier-separated from the push phase's CAS
					func(v graph.NodeID) bool { return parent[v] < 0 },
					func(u, v graph.NodeID) bool { parent[v] = u; return true })
				awake = next.Size()
				cur = next
				if !disp.KeepPulling(awake, prev) {
					break
				}
			}
			front = cur.ToList(exec, workers)
			disp.EndPull()
		} else {
			disp.BeginPush()
			newScout.Store(0)
			front = frontier.Push(exec, g, front, sched.Frontier, workers, func(u, v graph.NodeID) bool {
				if atomic.LoadInt32(&parent[v]) < 0 &&
					atomic.CompareAndSwapInt32(&parent[v], -1, u) {
					newScout.Add(g.OutDegree(v))
					return true
				}
				return false
			})
			disp.EndPush(newScout.Load())
			if sched.Direction == PushOnly {
				// No active-vertex accounting in push-only schedules.
				disp.DisableAccounting()
			}
		}
	}
	return parent
}

// sssp is GraphIt's delta-stepping with the bucket-fusion optimization it
// originated (§VI): a thread whose next bucket has the same priority keeps
// processing without synchronizing, cutting rounds ~10x on Road.
func sssp(exec *par.Machine, g *graph.Graph, src graph.NodeID, delta kernel.Dist, sched Schedule, workers int) []kernel.Dist {
	n := int(g.NumNodes())
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0

	type workerBins struct {
		bins [][]graph.NodeID
	}
	if workers < 1 {
		workers = 1
	}
	wb := make([]workerBins, workers)
	put := func(w *workerBins, b int, v graph.NodeID) {
		for b >= len(w.bins) {
			w.bins = append(w.bins, nil)
		}
		w.bins[b] = append(w.bins[b], v)
	}

	frontier := []graph.NodeID{src}
	bucket := 0
	const fusionThreshold = 1024

	for {
		if exec.Interrupted() {
			return dist
		}
		lo := kernel.Dist(bucket) * delta
		hi := lo + delta
		fr, b0 := frontier, bucket // read-only in the closure: captured by value
		exec.ForWorker(len(fr), workers, func(wid, lo2, hi2 int) {
			w := &wb[wid]
			relax := func(u graph.NodeID) {
				du := atomic.LoadInt32(&dist[u])
				if du < lo || du >= hi {
					return
				}
				neigh := g.OutNeighbors(u)
				ws := g.OutWeights(u)
				for i, v := range neigh {
					nd := du + ws[i]
					old := atomic.LoadInt32(&dist[v])
					for nd < old {
						if atomic.CompareAndSwapInt32(&dist[v], old, nd) {
							put(w, int(nd/delta), v)
							break
						}
						old = atomic.LoadInt32(&dist[v])
					}
				}
			}
			for i := lo2; i < hi2; i++ {
				relax(fr[i])
			}
			if sched.BucketFusion {
				// Bucket fusion: keep draining our own current-priority bin
				// while it stays small.
				for b0 < len(w.bins) {
					batch := w.bins[b0]
					if len(batch) == 0 || len(batch) > fusionThreshold {
						break
					}
					w.bins[b0] = nil
					for _, u := range batch {
						relax(u)
					}
				}
			}
		})
		next := -1
		for w := range wb {
			for b := bucket; b < len(wb[w].bins); b++ {
				if len(wb[w].bins[b]) > 0 && (next < 0 || b < next) {
					next = b
					break
				}
			}
		}
		if next < 0 {
			break
		}
		frontier = frontier[:0]
		for w := range wb {
			if next < len(wb[w].bins) {
				frontier = append(frontier, wb[w].bins[next]...)
				wb[w].bins[next] = nil
			}
		}
		bucket = next
	}
	return dist
}

// propagateMin CAS-lowers comp[v] to cu, appending v to local when this call
// won the update. Kept as a named function so the label-propagation loop does
// not allocate a closure per frontier vertex on the timed hot path.
func propagateMin(comp []graph.NodeID, cu int32, v graph.NodeID, local []graph.NodeID) []graph.NodeID {
	old := atomic.LoadInt32(&comp[v])
	for cu < old {
		if atomic.CompareAndSwapInt32(&comp[v], old, cu) {
			return append(local, v)
		}
		old = atomic.LoadInt32(&comp[v])
	}
	return local
}

// cc is GraphIt's label-propagation connected components: O(E*D) where
// Afforest is O(V)-ish, because "GraphIt does not yet support sampling
// algorithms" (§V-C) — the largest deliberate performance gap in the paper's
// tables. The short-circuit schedule pointer-jumps label chains between
// rounds, the Optimized Road variant worth ~3x (still far behind).
func cc(exec *par.Machine, g *graph.Graph, sched Schedule, workers int) []graph.NodeID {
	n := int(g.NumNodes())
	comp := make([]graph.NodeID, n)
	for i := range comp {
		comp[i] = graph.NodeID(i)
	}
	if n == 0 {
		return comp
	}
	front := make([]graph.NodeID, n)
	for i := range front {
		front[i] = graph.NodeID(i)
	}

	// One collector for every propagation round: the chunk closures capture
	// the pointer by value, so a round allocates no accumulator cell.
	collect := new(frontier.Collector)

	for len(front) > 0 {
		if exec.Interrupted() {
			return comp
		}
		collect.Reset()
		fr := front // read-only in the closure: captured by value
		exec.ForDynamic(len(fr), 128, workers, func(lo, hi int) {
			var local []graph.NodeID
			for i := lo; i < hi; i++ {
				u := fr[i]
				cu := atomic.LoadInt32(&comp[u])
				for _, v := range g.OutNeighbors(u) {
					local = propagateMin(comp, cu, v, local)
				}
				if g.Directed() {
					for _, v := range g.InNeighbors(u) {
						local = propagateMin(comp, cu, v, local)
					}
				}
			}
			collect.Add(local)
		})
		front = collect.Take()
		if sched.ShortCircuit {
			// Pointer-jump chains: comp[v] <- comp[comp[v]] to a fixed point.
			exec.ForBlocked(n, workers, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					c := atomic.LoadInt32(&comp[v])
					for {
						cc := atomic.LoadInt32(&comp[c])
						if cc == c {
							break
						}
						c = cc
					}
					atomic.StoreInt32(&comp[v], c)
				}
			})
		}
	}
	return comp
}

// pr is GraphIt's Jacobi PageRank with optional cache tiling (§V-D): the
// in-edge array is split into source-range segments so the random reads of
// contributions stay within a cache-sized window. Building the segmented
// representation is timed and "amortized within 2-5 iterations".
func pr(exec *par.Machine, g *graph.Graph, sched Schedule, workers int) []float64 {
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	initial := 1 / float64(n)
	for i := range ranks {
		ranks[i] = initial
	}

	var segments []segmentCSR
	if sched.CacheTiling && sched.NumSegments > 1 {
		segments = buildSegments(g, sched.NumSegments)
	}

	for it := 0; it < kernel.PRMaxIters; it++ {
		if exec.Interrupted() {
			return ranks
		}
		// Per-iteration copies: the sweep closures capture the slice headers
		// by value, so the swapped outer variables never become heap cells.
		r, nx := ranks, next
		dangling := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for u := lo; u < hi; u++ {
				if deg := g.OutDegree(graph.NodeID(u)); deg > 0 {
					contrib[u] = r[u] / float64(deg)
				} else {
					contrib[u] = 0
					d += r[u]
				}
			}
			return d
		})
		danglingShare := kernel.PRDamping * dangling / float64(n)

		if segments != nil {
			exec.ForBlocked(n, workers, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					nx[v] = 0
				}
			})
			for _, seg := range segments {
				exec.ForBlocked(n, workers, func(lo, hi int) {
					for v := lo; v < hi; v++ {
						sum := 0.0
						for _, u := range seg.neigh[seg.index[v]:seg.index[v+1]] {
							sum += contrib[u]
						}
						nx[v] += sum
					}
				})
			}
			exec.ForBlocked(n, workers, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					nx[v] = base + danglingShare + kernel.PRDamping*nx[v]
				}
			})
		} else {
			exec.ForBlocked(n, workers, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, u := range g.InNeighbors(graph.NodeID(v)) {
						sum += contrib[u]
					}
					nx[v] = base + danglingShare + kernel.PRDamping*sum
				}
			})
		}
		delta := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for v := lo; v < hi; v++ {
				d += math.Abs(nx[v] - r[v])
			}
			return d
		})
		ranks, next = next, ranks
		if delta < kernel.PRTolerance {
			break
		}
	}
	return ranks
}

// segmentCSR is one cache tile: the in-CSR restricted to sources within one
// contiguous range.
type segmentCSR struct {
	index []int64
	neigh []graph.NodeID
}

// buildSegments splits the in-edge lists by source range into numSegments
// tiles (the graph-tiling preprocessing of Zhang et al.'s cache
// optimization).
func buildSegments(g *graph.Graph, numSegments int) []segmentCSR {
	n := int(g.NumNodes())
	width := (n + numSegments - 1) / numSegments
	segs := make([]segmentCSR, numSegments)
	for s := range segs {
		segs[s].index = make([]int64, n+1)
	}
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(graph.NodeID(v)) {
			s := int(u) / width
			segs[s].index[v+1]++
		}
	}
	for s := range segs {
		idx := segs[s].index
		for v := 0; v < n; v++ {
			idx[v+1] += idx[v]
		}
		segs[s].neigh = make([]graph.NodeID, idx[n])
	}
	fill := make([]int64, numSegments)
	for v := 0; v < n; v++ {
		for s := range fill {
			fill[s] = segs[s].index[v]
		}
		for _, u := range g.InNeighbors(graph.NodeID(v)) {
			s := int(u) / width
			segs[s].neigh[fill[s]] = u
			fill[s]++
		}
	}
	return segs
}
