package galois

import (
	"sync/atomic"

	ft "gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// asyncBFS computes BFS parents by asynchronous distance relaxation over the
// ordered executor: the operator CAS-updates a packed (depth, parent) word
// and re-schedules improved vertices at their new depth. There are no
// rounds, so on a high-diameter graph like Road thousands of barrier waits
// disappear — the effect behind Galois' 3.6x Baseline win there (§V-A).
func asyncBFS(exec *par.Machine, g *graph.Graph, src graph.NodeID) []graph.NodeID {
	n := int(g.NumNodes())
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent
	}
	// state[v] packs depth (high 32 bits) and parent (low 32 bits) so both
	// update in one CAS and can never disagree.
	state := make([]uint64, n)
	unvisited := pack(int32(1<<30), -1)
	for i := range state {
		state[i] = unvisited
	}
	state[src] = pack(0, src)

	ForEachOrdered(exec, []graph.NodeID{src}, 0, func(ctx *PCtx, u graph.NodeID) {
		du := depthOf(atomic.LoadUint64(&state[u]))
		nd := du + 1
		for _, v := range g.OutNeighbors(u) {
			for {
				old := atomic.LoadUint64(&state[v])
				if depthOf(old) <= nd {
					break
				}
				if atomic.CompareAndSwapUint64(&state[v], old, pack(nd, u)) {
					ctx.Push(v, int(nd))
					break
				}
			}
		}
	})

	for v := 0; v < n; v++ {
		if s := state[v]; depthOf(s) < 1<<30 {
			parent[v] = parentOf(s)
		}
	}
	return parent
}

func pack(depth int32, parent graph.NodeID) uint64 {
	return uint64(uint32(depth))<<32 | uint64(uint32(parent))
}
func depthOf(s uint64) int32         { return int32(s >> 32) }
func parentOf(s uint64) graph.NodeID { return graph.NodeID(uint32(s)) }

// syncBFS is the bulk-synchronous direction-optimizing BFS, with the
// frontier handled through the chunked-bag machinery (the generic-library
// overhead §V-A mentions: "the overheads of a generic library such as Galois
// are significant" when runtimes are small).
func syncBFS(exec *par.Machine, g *graph.Graph, src graph.NodeID) []graph.NodeID {
	n := int64(g.NumNodes())
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return parent
	}
	parent[src] = src

	frontier := []graph.NodeID{src}
	front := graph.NewBitmap(n)
	next := graph.NewBitmap(n)
	disp := ft.NewDispatcher(n, g.NumEdges(), g.OutDegree(src))

	for len(frontier) > 0 {
		if exec.Interrupted() {
			return parent // partial tree; the harness discards cancelled trials
		}
		if disp.UsePull() {
			front.Reset()
			for _, u := range frontier {
				front.Set(int64(u))
			}
			awake := int64(len(frontier))
			for {
				prev := awake
				next.Reset()
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
								next.SetAtomic(int64(u))
								count++
								break
							}
						}
					}
					return count
				})
				front.Swap(next)
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
		} else {
			disp.BeginPush()
			var newScout atomic.Int64
			collected := &bag{}
			cur := frontier
			exec.ForDynamic(len(cur), chunkSize, 0, func(lo, hi int) {
				local := newChunk()
				var sc int64
				for i := lo; i < hi; i++ {
					u := cur[i]
					for _, v := range g.OutNeighbors(u) {
						if atomic.LoadInt32(&parent[v]) < 0 &&
							atomic.CompareAndSwapInt32(&parent[v], -1, u) {
							if local.n == chunkSize {
								//gapvet:ignore inline-miss -- overflow branch: reached once per chunkSize pushes, amortized across the chunk
								collected.put(local)
								local = newChunk()
							}
							local.items[local.n] = v
							local.n++
							sc += g.OutDegree(v)
						}
					}
				}
				collected.put(local)
				newScout.Add(sc)
			})
			frontier = drainBag(collected, frontier[:0])
			disp.EndPush(newScout.Load())
		}
	}
	return parent
}

// drainBag empties a bag into dst, recycling the chunks.
func drainBag(b *bag, dst []graph.NodeID) []graph.NodeID {
	//gapvet:ignore cancel-liveness -- bounded: every iteration removes one chunk from a finite bag with no concurrent producers
	for {
		c := b.get()
		if c == nil {
			return dst
		}
		dst = append(dst, c.items[:c.n]...)
		c.n = 0
		chunkPool.Put(c)
	}
}

// AsyncBFS exposes the asynchronous BFS variant directly for ablation
// benchmarks (the Baseline/Optimized dispatch normally chooses it).
func AsyncBFS(exec *par.Machine, g *graph.Graph, src graph.NodeID) []graph.NodeID {
	return asyncBFS(exec, g, src)
}

// SyncBFS exposes the bulk-synchronous direction-optimizing BFS variant
// directly for ablation benchmarks.
func SyncBFS(exec *par.Machine, g *graph.Graph, src graph.NodeID) []graph.NodeID {
	return syncBFS(exec, g, src)
}
