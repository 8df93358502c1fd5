package gap

import (
	"sync"
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// fusionThreshold is the bucket-fusion size cap: a worker keeps processing
// its own next batch of the current bucket without a barrier only while the
// batch stays below this size, which bounds load imbalance (§VI: "It sets a
// threshold on the next bucket size to avoid load imbalance").
const fusionThreshold = 1024

// DeltaStep runs delta-stepping SSSP from src with the given bucket width.
// When fusion is true the bucket-fusion optimization (originated in GraphIt,
// incorporated into the GAP reference) lets workers drain same-priority work
// without synchronizing, collapsing the round count on high-diameter graphs.
func DeltaStep(g *graph.Graph, src graph.NodeID, delta kernel.Dist, opt kernel.Options, fusion bool) []kernel.Dist {
	n := int(g.NumNodes())
	exec := opt.Exec()
	slots := exec.Size()
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	if delta <= 0 {
		delta = 16
	}
	dist[src] = 0

	// bins[w][b] holds vertices worker w discovered with tentative distance
	// in bucket b. Keeping them per worker avoids all synchronization on the
	// hot relaxation path; the barrier between buckets is where they merge.
	bins := make([][][]graph.NodeID, slots)
	for w := range bins {
		bins[w] = make([][]graph.NodeID, 8)
	}
	binPut := func(w int, b int, v graph.NodeID) {
		for b >= len(bins[w]) {
			bins[w] = append(bins[w], nil)
		}
		bins[w][b] = append(bins[w][b], v)
	}

	frontier := []graph.NodeID{src}
	bucket := 0

	relax := func(w int, u graph.NodeID, du kernel.Dist) {
		neigh := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range neigh {
			nd := du + ws[i]
			old := atomic.LoadInt32(&dist[v])
			for nd < old {
				if atomic.CompareAndSwapInt32(&dist[v], old, nd) {
					binPut(w, int(nd/delta), v)
					break
				}
				old = atomic.LoadInt32(&dist[v])
			}
		}
	}

	for {
		if exec.Interrupted() {
			return dist // partial distances; the harness discards cancelled trials
		}
		lowBound := kernel.Dist(bucket) * delta
		highBound := lowBound + delta

		// Drain the shared frontier with dynamically scheduled chunks while
		// retaining a stable worker id for the private bins: one machine
		// slot per worker, each pulling chunks off a shared cursor. (Before
		// the machine existed this was a hand-rolled goroutine fork-join,
		// re-spawned every bucket — exactly the per-round launch overhead
		// the paper's §V-A Road analysis is about.)
		var cursor atomic.Int64
		active := slots
		if active > len(frontier) {
			active = len(frontier)
		}
		if active < 1 {
			active = 1
		}
		exec.ForWorker(active, active, func(w, _, _ int) {
			const chunk = 64
			for {
				lo := int(cursor.Add(chunk)) - chunk
				if lo >= len(frontier) {
					break
				}
				hi := lo + chunk
				if hi > len(frontier) {
					hi = len(frontier)
				}
				for _, u := range frontier[lo:hi] {
					du := atomic.LoadInt32(&dist[u])
					if du >= lowBound && du < highBound {
						relax(w, u, du)
					}
					// Entries below lowBound were settled in an earlier
					// bucket (stale duplicates) and are skipped.
				}
			}
			if !fusion {
				return
			}
			// Bucket fusion: while this worker's own bin for the current
			// bucket stays small, process it immediately. Priority order
			// is preserved (everything in it belongs to this bucket) and
			// a full barrier+merge round is saved each time.
			for bucket < len(bins[w]) {
				batch := bins[w][bucket]
				if len(batch) == 0 || len(batch) > fusionThreshold {
					break
				}
				bins[w][bucket] = nil
				for _, u := range batch {
					du := atomic.LoadInt32(&dist[u])
					if du >= lowBound && du < highBound {
						relax(w, u, du)
					}
				}
			}
		})

		// Barrier: find the next non-empty bucket across all workers and
		// merge those bins into the shared frontier.
		next := -1
		for w := 0; w < slots; w++ {
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
		for w := 0; w < slots; w++ {
			if next < len(bins[w]) {
				frontier = append(frontier, bins[w][next]...)
				bins[w][next] = nil
			}
		}
		bucket = next
	}
	return dist
}

// DeltaStepLightHeavy is the full Meyer–Sanders delta-stepping with the
// light/heavy edge split the GAP reference simplifies away: within a bucket,
// only light edges (weight <= delta) are relaxed until the bucket reaches a
// fixed point; the heavy edges of everything the bucket settled are then
// relaxed exactly once. The split bounds re-relaxation of expensive edges —
// the original algorithm's work-efficiency argument — and is ablated against
// the simplified all-edges variant in bench_test.go.
func DeltaStepLightHeavy(g *graph.Graph, src graph.NodeID, delta kernel.Dist, opt kernel.Options) []kernel.Dist {
	n := int(g.NumNodes())
	exec := opt.Exec()
	slots := exec.Size()
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	if delta <= 0 {
		delta = 16
	}
	dist[src] = 0

	bins := make([][][]graph.NodeID, slots)
	binPut := func(w, b int, v graph.NodeID) {
		for b >= len(bins[w]) {
			bins[w] = append(bins[w], nil)
		}
		bins[w][b] = append(bins[w][b], v)
	}
	relax := func(w int, u graph.NodeID, du kernel.Dist, light bool) {
		neigh := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range neigh {
			if (ws[i] <= delta) != light {
				continue
			}
			nd := du + ws[i]
			old := atomic.LoadInt32(&dist[v])
			for nd < old {
				if atomic.CompareAndSwapInt32(&dist[v], old, nd) {
					binPut(w, int(nd/delta), v)
					break
				}
				old = atomic.LoadInt32(&dist[v])
			}
		}
	}

	frontier := []graph.NodeID{src}
	var settled []graph.NodeID // bucket members settled this bucket (for heavy phase)
	bucket := 0
	for {
		if exec.Interrupted() {
			return dist
		}
		lo := kernel.Dist(bucket) * delta
		hi := lo + delta
		settled = settled[:0]
		// Light phase: iterate to a fixed point within the bucket.
		for len(frontier) > 0 {
			if exec.Interrupted() {
				return dist
			}
			var mu sync.Mutex
			work := frontier
			exec.ForWorker(len(work), slots, func(w, i0, i1 int) {
				var local []graph.NodeID
				for i := i0; i < i1; i++ {
					u := work[i]
					du := atomic.LoadInt32(&dist[u])
					if du < lo || du >= hi {
						continue
					}
					local = append(local, u)
					relax(w, u, du, true)
				}
				if len(local) > 0 {
					mu.Lock()
					settled = append(settled, local...)
					mu.Unlock()
				}
			})
			// Re-drain anything that fell back into this bucket.
			frontier = frontier[:0]
			for w := range bins {
				if bucket < len(bins[w]) && len(bins[w][bucket]) > 0 {
					frontier = append(frontier, bins[w][bucket]...)
					bins[w][bucket] = nil
				}
			}
		}
		// Heavy phase: each settled vertex relaxes its heavy edges once.
		heavy := settled
		exec.ForWorker(len(heavy), slots, func(w, i0, i1 int) {
			for i := i0; i < i1; i++ {
				u := heavy[i]
				relax(w, u, atomic.LoadInt32(&dist[u]), false)
			}
		})
		// Advance to the next occupied bucket.
		next := -1
		for w := range bins {
			for b := bucket + 1; b < len(bins[w]); b++ {
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
