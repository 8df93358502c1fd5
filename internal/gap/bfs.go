package gap

import (
	"sync/atomic"

	"gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// DOBFS runs direction-optimizing breadth-first search from src and returns
// the parent array under the shared result convention. The direction switch
// is Beamer's α/β rule with the GAP reference's constants, through the shared
// frontier.Dispatcher.
func DOBFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	n := int64(g.NumNodes())
	exec := opt.Exec()
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent
	}
	parent[src] = src

	queue := graph.NewSlidingQueue(n)
	queue.PushBack(src)
	queue.SlideWindow()
	front := graph.NewBitmap(n)
	curr := graph.NewBitmap(n)

	disp := frontier.NewDispatcher(n, g.NumEdges(), g.OutDegree(src))
	// One scout accumulator for the whole search: tdStep's chunk closures
	// capture the pointer by value, so no per-round heap cell is allocated.
	var scout atomic.Int64

	for !queue.Empty() {
		if exec.Interrupted() {
			return parent // partial tree; the harness discards cancelled trials
		}
		if disp.UsePull() {
			// Switch to pull: the frontier is touching a large fraction of
			// the remaining edges, so scanning unvisited vertices' in-edges
			// is cheaper than pushing from the frontier.
			front.Reset()
			for _, u := range queue.Frontier() {
				front.Set(int64(u))
			}
			awake := queue.Size()
			queue.Reset()
			for {
				if exec.Interrupted() {
					return parent
				}
				prevAwake := awake
				curr.Reset()
				awake = buStep(exec, g, parent, front, curr)
				front.Swap(curr)
				if !disp.KeepPulling(awake, prevAwake) {
					break
				}
			}
			bitmapToQueue(exec, front, queue)
			queue.SlideWindow()
			disp.EndPull()
		} else {
			disp.BeginPush()
			disp.EndPush(tdStep(exec, g, parent, queue, &scout))
			queue.SlideWindow()
		}
	}
	return parent
}

// tdStep is the push ("top-down") step: every frontier vertex claims its
// unvisited out-neighbors with a CAS on the parent array, appending winners
// to the next window through per-chunk local buffers (the GAP QueueBuffer).
// It returns the total out-degree of the newly visited vertices (the scout
// count driving the direction heuristic). The accumulator is caller-owned so
// the chunk closure captures only a pointer, not a per-call heap cell.
func tdStep(exec *par.Machine, g *graph.Graph, parent []graph.NodeID, queue *graph.SlidingQueue, scout *atomic.Int64) int64 {
	frontier := queue.Frontier()
	scout.Store(0)
	exec.ForDynamic(len(frontier), 64, 0, func(lo, hi int) {
		//gapvet:ignore alloc-in-timed-region -- GAP QueueBuffer idiom: one buffer per 64-vertex chunk, amortized over the chunk's edges
		local := make([]graph.NodeID, 0, 256)
		var localScout int64
		for i := lo; i < hi; i++ {
			u := frontier[i]
			for _, v := range g.OutNeighbors(u) {
				if atomic.LoadInt32(&parent[v]) < 0 &&
					atomic.CompareAndSwapInt32(&parent[v], -1, u) {
					local = append(local, v)
					localScout += g.OutDegree(v)
				}
			}
		}
		if len(local) > 0 {
			base := queue.Reserve(int64(len(local)))
			for i, v := range local {
				queue.Write(base+int64(i), v)
			}
		}
		scout.Add(localScout)
	})
	return scout.Load()
}

// buStep is the pull ("bottom-up") step: every unvisited vertex scans its
// in-neighbors and adopts the first one found in the frontier bitmap. No
// atomics are needed because each vertex writes only its own parent slot. It
// returns the number of vertices awakened into next.
func buStep(exec *par.Machine, g *graph.Graph, parent []graph.NodeID, front, next *graph.Bitmap) int64 {
	n := int(g.NumNodes())
	return exec.ReduceInt64(n, 0, func(lo, hi int) int64 {
		var awake int64
		for u := lo; u < hi; u++ {
			//gapvet:ignore atomic-plain-mix -- pull phase: each u writes only parent[u]; barrier-separated from tdStep's CAS
			if parent[u] >= 0 {
				continue
			}
			for _, v := range g.InNeighbors(graph.NodeID(u)) {
				if front.Get(int64(v)) {
					parent[u] = v
					next.SetAtomic(int64(u))
					awake++
					break
				}
			}
		}
		return awake
	})
}

// bitmapToQueue converts a frontier bitmap back into the sliding queue after
// the pull phase ends.
func bitmapToQueue(exec *par.Machine, front *graph.Bitmap, queue *graph.SlidingQueue) {
	n := int(front.Len())
	exec.ForWorker(n, 0, func(_, lo, hi int) {
		local := make([]graph.NodeID, 0, 256)
		for u := lo; u < hi; u++ {
			if front.Get(int64(u)) {
				local = append(local, graph.NodeID(u))
			}
		}
		if len(local) > 0 {
			base := queue.Reserve(int64(len(local)))
			for i, v := range local {
				queue.Write(base+int64(i), v)
			}
		}
	})
}
