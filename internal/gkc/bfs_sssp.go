package gkc

import (
	"sync/atomic"

	ft "gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// bfs is GKC's direction-optimizing BFS. Small frontiers run serially with
// no atomics or fan-out at all; larger ones run the push step with
// per-thread local buffers flushed in bulk to the shared next-frontier
// (§III-E's false-sharing reduction), and the dense middle runs the pull
// step over the in-CSR. The alpha/beta switch arithmetic comes from the
// shared frontier.Dispatcher; the frontier containers stay GKC's own
// (sliding queue plus bitmap ping-pong).
func bfs(exec *par.Machine, g *graph.Graph, src graph.NodeID) []graph.NodeID {
	n := int64(g.NumNodes())
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent
	}
	parent[src] = src
	frontier := make([]graph.NodeID, 0, 1024)
	next := make([]graph.NodeID, 0, 1024)
	frontier = append(frontier, src)
	front := graph.NewBitmap(n)
	curr := graph.NewBitmap(n)
	disp := ft.NewDispatcher(n, g.NumEdges(), g.OutDegree(src))

	for len(frontier) > 0 {
		if exec.Interrupted() {
			return parent // partial; the harness discards cancelled trials
		}
		switch {
		case disp.UsePull():
			// Pull phase.
			front.Reset()
			for _, u := range frontier {
				front.Set(int64(u))
			}
			awake := int64(len(frontier))
			for {
				prev := awake
				curr.Reset()
				awake = exec.ReduceInt64(int(n), 0, func(lo, hi int) int64 {
					var count int64
					for u := lo; u < hi; u++ {
						//gapvet:ignore atomic-plain-mix -- pull phase: each u writes only parent[u]; barrier-separated from the push phase's CAS
						if parent[u] >= 0 {
							continue
						}
						for _, v := range g.InNeighbors(graph.NodeID(u)) {
							if front.Get(int64(v)) {
								parent[u] = v
								curr.SetAtomic(int64(u))
								count++
								break
							}
						}
					}
					return count
				})
				front.Swap(curr)
				if !disp.KeepPulling(awake, prev) {
					break
				}
			}
			frontier = frontier[:0]
			for u := int64(0); u < n; u++ {
				if front.Get(u) {
					frontier = append(frontier, graph.NodeID(u))
				}
			}
			disp.EndPull()
		case len(frontier) < serialThreshold:
			// Serial push: no atomics, no goroutines — the fast path that
			// wins Road's thousands of tiny levels.
			disp.BeginPush()
			var sc int64
			next = next[:0]
			for _, u := range frontier {
				for _, v := range g.OutNeighbors(u) {
					if parent[v] < 0 {
						parent[v] = u
						next = append(next, v)
						sc += g.OutDegree(v)
					}
				}
			}
			frontier, next = next, frontier
			disp.EndPush(sc)
		default:
			// Parallel push with local buffers.
			disp.BeginPush()
			var newScout atomic.Int64
			shared := graph.NewSlidingQueue(n)
			cur := frontier
			exec.ForDynamic(len(cur), 64, 0, func(lo, hi int) {
				//gapvet:ignore alloc-in-timed-region -- QueueBuffer idiom: one buffer per 64-vertex chunk, amortized over the chunk's edges
				local := make([]graph.NodeID, 0, localBufferSize)
				var sc int64
				for i := lo; i < hi; i++ {
					u := cur[i]
					for _, v := range g.OutNeighbors(u) {
						if atomic.LoadInt32(&parent[v]) < 0 &&
							atomic.CompareAndSwapInt32(&parent[v], -1, u) {
							local = append(local, v)
							sc += g.OutDegree(v)
						}
					}
				}
				if len(local) > 0 {
					base := shared.Reserve(int64(len(local)))
					for i, v := range local {
						shared.Write(base+int64(i), v)
					}
				}
				newScout.Add(sc)
			})
			shared.SlideWindow()
			frontier = append(frontier[:0], shared.Frontier()...)
			disp.EndPush(newScout.Load())
		}
	}
	return parent
}

// sssp is GKC's delta-stepping: per-worker bucket bins, a serial fast path
// for tiny frontiers, and no bucket fusion — the omission behind GKC's weak
// Road SSSP showing (18% in Table V) despite its strong BFS there.
func sssp(exec *par.Machine, g *graph.Graph, src graph.NodeID, delta kernel.Dist) []kernel.Dist {
	n := int(g.NumNodes())
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	slots := exec.Size()
	bins := make([][][]graph.NodeID, slots)
	put := func(w, b int, v graph.NodeID) {
		for b >= len(bins[w]) {
			bins[w] = append(bins[w], nil)
		}
		bins[w][b] = append(bins[w][b], v)
	}

	frontier := []graph.NodeID{src}
	bucket := 0
	for {
		if exec.Interrupted() {
			return dist // partial; the harness discards cancelled trials
		}
		lo := kernel.Dist(bucket) * delta
		hi := lo + delta
		// Every bucket pass is a full fork-join over the frontier — GKC has
		// neither a bucket-fusion equivalent nor BFS's serial fast path in
		// its SSSP, which is why its Road SSSP trails GAP badly in the paper
		// (Table V: 18%) even though its Road BFS leads.
		exec.ForWorker(len(frontier), slots, func(w, i0, i1 int) {
			for i := i0; i < i1; i++ {
				u := frontier[i]
				du := atomic.LoadInt32(&dist[u])
				if du < lo || du >= hi {
					continue
				}
				neigh := g.OutNeighbors(u)
				ws := g.OutWeights(u)
				for k, v := range neigh {
					nd := du + ws[k]
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
		})
		next := -1
		for w := range bins {
			for b := bucket; b < len(bins[w]); b++ {
				if len(bins[w][b]) > 0 && (next < 0 || b < next) {
					next = b
					break
				}
			}
		}
		if next < 0 {
			break
		}
		frontier = frontier[:0]
		for w := range bins {
			if next < len(bins[w]) {
				frontier = append(frontier, bins[w][next]...)
				bins[w][next] = nil
			}
		}
		bucket = next
	}
	return dist
}
