package galois

import (
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// relaxEdges applies the SSSP relaxation operator to u: CAS-min every
// out-neighbor's distance and report improvements through push.
func relaxEdges(g *graph.Graph, dist []kernel.Dist, u graph.NodeID, push func(v graph.NodeID, nd kernel.Dist)) {
	du := atomic.LoadInt32(&dist[u])
	neigh := g.OutNeighbors(u)
	ws := g.OutWeights(u)
	for i, v := range neigh {
		nd := du + ws[i]
		old := atomic.LoadInt32(&dist[v])
		for nd < old {
			if atomic.CompareAndSwapInt32(&dist[v], old, nd) {
				push(v, nd)
				break
			}
			old = atomic.LoadInt32(&dist[v])
		}
	}
}

// asyncSSSP is Galois' asynchronous delta-stepping: the relaxation operator
// over the OBIM ordered executor, priority = distance/delta. No per-bucket
// barriers exist, which is what narrows the gap to GAP on Road (§V-B:
// "Asynchronous execution in Galois for Road reduces this performance gap").
func asyncSSSP(exec *par.Machine, g *graph.Graph, src graph.NodeID, delta kernel.Dist) []kernel.Dist {
	n := int(g.NumNodes())
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	ForEachOrdered(exec, []graph.NodeID{src}, 0, func(ctx *PCtx, u graph.NodeID) {
		relaxEdges(g, dist, u, func(v graph.NodeID, nd kernel.Dist) {
			ctx.Push(v, int(nd/delta))
		})
	})
	return dist
}

// bulkSSSP is bulk-synchronous delta-stepping through the worklist
// machinery: each bucket drains to a fixed point with barriers between
// passes. Deliberately absent is GAP's bucket fusion; §V-B: "GAP is faster
// than Galois due to the bucket fusion optimization".
func bulkSSSP(exec *par.Machine, g *graph.Graph, src graph.NodeID, delta kernel.Dist) []kernel.Dist {
	n := int(g.NumNodes())
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0

	// buckets[b] holds the pending work for priority level b.
	var buckets []*bag
	level := func(b int) *bag {
		for b >= len(buckets) {
			buckets = append(buckets, &bag{})
		}
		return buckets[b]
	}
	seed := newChunk()
	seed.items[0] = src
	seed.n = 1
	level(0).put(seed)

	// Per-worker scratch reused across every bulk pass: the tagged-chunk
	// collector and the partial-chunk map are allocated once per search, not
	// once per pass, and drained back to empty at each barrier.
	slots := exec.Size()
	results := make([]*priorityChunks, slots)
	locals := make([]map[int]*chunk, slots)
	for w := range results {
		results[w] = &priorityChunks{tagged: map[int][]*chunk{}}
		locals[w] = map[int]*chunk{}
	}

	for b := 0; b < len(buckets); b++ {
		lo := kernel.Dist(b) * delta
		hi := lo + delta
		for !buckets[b].empty() {
			if exec.Interrupted() {
				return dist // partial distances; the harness discards cancelled trials
			}
			// One bulk-synchronous pass over the bucket's current chunks.
			work := drainBag(buckets[b], nil)
			exec.ForWorker(len(work), slots, func(w, loI, hiI int) {
				out := results[w]
				local := locals[w]
				for i := loI; i < hiI; i++ {
					u := work[i]
					du := atomic.LoadInt32(&dist[u])
					if du < lo || du >= hi {
						continue // settled earlier or migrated buckets
					}
					//gapvet:ignore inline-miss -- relaxEdges loops over u's whole edge list: call overhead is amortized per edge, and splitting it would split that loop
					relaxEdges(g, dist, u, func(v graph.NodeID, nd kernel.Dist) {
						p := int(nd / delta)
						lc := local[p]
						if lc == nil {
							lc = newChunk()
							local[p] = lc
						}
						// Tag the chunk with its priority via the bag map on
						// flush; chunks themselves are priority-agnostic.
						if lc.n == chunkSize {
							out.putTagged(p, lc)
							lc = newChunk()
							local[p] = lc
						}
						lc.items[lc.n] = v
						lc.n++
					})
				}
				for p, lc := range local {
					out.putTagged(p, lc)
					delete(local, p)
				}
			})
			// Barrier: merge per-worker tagged chunks into the global buckets,
			// truncating each tag's slice in place so the next pass reuses its
			// capacity.
			for _, out := range results {
				for p, cs := range out.tagged {
					for _, c := range cs {
						level(p).put(c)
					}
					out.tagged[p] = cs[:0]
				}
			}
		}
	}
	return dist
}

// priorityChunks collects full chunks per priority level inside one worker
// during a bulk pass; the merge into global buckets happens at the barrier.
type priorityChunks struct {
	tagged map[int][]*chunk
}

func (p *priorityChunks) putTagged(prio int, c *chunk) {
	if c.n == 0 {
		chunkPool.Put(c)
		return
	}
	p.tagged[prio] = append(p.tagged[prio], c)
}
