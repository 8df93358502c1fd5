package par

// ingest.go holds the counting-sort ingest primitives: a sharded histogram,
// a blocked parallel prefix sum, and a stable parallel scatter. Together they
// form the pipeline the GAP reference builder uses to construct CSR — count
// per-key occurrences, exclusive-scan the counts into offsets, then place
// every item at its final position — with no comparison sort over the full
// item list and no atomics on the placement path.
//
// The design follows the classic stable parallel counting sort. Each worker
// owns a private count shard over its statically assigned item range; the
// shards are merged by key range into the exclusive scan, and in the same
// pass each shard cell is rewritten into that worker's *starting offset* for
// the key: offset[w][k] = index[k] + sum over w' < w of count[w'][k]. The
// scatter pass then re-walks the identical item partition, and each worker
// bumps only its own offset cells — per-worker disjoint positions, no
// synchronization, and stability for free (workers are ordered by item
// range, items within a worker are walked in order).
//
// All three primitives are reusable building blocks: the graph builder, the
// CSR symmetrizer, the GraphBLAS transpose and the degree-relabeling
// counting sort (internal/graph, internal/grb) are the first consumers.

import "math"

// histogramCellBudget bounds the total number of shard cells a histogram may
// allocate, as a multiple of the item count: the sharded layout costs
// active x bins int64 cells, so for wide key spaces (bins close to or above
// the item count) the parallelism is capped rather than letting the scratch
// memory dwarf the data being sorted. 4x the item count keeps full
// parallelism for every CSR-shaped workload (bins = n, items = m >= 4n on
// the dense GAP graphs) while degrading toward a single shard when keys
// outnumber items.
const histogramCellBudget = 4

// Histogram is an in-flight sharded counting-sort: per-worker count shards
// over a fixed item partition, finalized by Index into per-worker placement
// offsets consumed by Scatter. Build one with Machine.ShardedHistogram; the
// zero value is not usable.
type Histogram struct {
	m      *Machine
	items  int
	bins   int
	active int // slot count used for both passes; fixed at construction
	key    func(i int) int
	// shards[w][k] holds worker w's count for key k after the counting pass,
	// and worker w's next placement offset for key k after Index.
	shards  [][]int64
	index   []int64
	scatter bool // Scatter already ran (offsets are consumed)
}

// ShardedHistogram counts key(i) occurrences for every i in [0, items) into
// per-worker shards, one private []int64 of length bins per participating
// slot. key must return a value in [0, bins) and must be pure: it is invoked
// again, over the identical item partition, by Scatter. workers follows the
// usual convention (< 1 means the machine's size); the effective parallelism
// is additionally capped so shard scratch stays within a small multiple of
// the item count (see histogramCellBudget).
func (m *Machine) ShardedHistogram(items, bins, workers int, key func(i int) int) *Histogram {
	active := m.clamp(workers, items)
	if bins > 0 {
		if budget := (histogramCellBudget*items + 4096) / bins; active > budget {
			active = budget
		}
	}
	if active < 1 {
		active = 1
	}
	h := &Histogram{m: m, items: items, bins: bins, active: active, key: key}
	h.shards = make([][]int64, active)
	if items == 0 {
		return h
	}
	m.ForWorker(items, active, func(w, lo, hi int) {
		// Per-worker shard allocation inside the region parallelizes the
		// page zeroing and lands the shard on the worker's own pages.
		s := make([]int64, bins)
		for i := lo; i < hi; i++ {
			s[key(i)]++
		}
		h.shards[w] = s
	})
	return h
}

// Index finalizes the histogram: it merges the shards by key range, returns
// the exclusive prefix sum over the merged counts (length bins+1, so the
// result is directly a CSR index array: index[k] is the first position of
// key k, index[bins] the total item count), and rewrites each shard cell
// into the owning worker's starting placement offset for that key. Index is
// idempotent; the first call does the work.
func (h *Histogram) Index() []int64 {
	if h.index != nil {
		return h.index
	}
	if h.items == 0 || h.active == 1 {
		// Single shard (or nothing): the scan is serial and the shard's
		// offsets are exactly the exclusive scan.
		index := make([]int64, h.bins+1)
		var run int64
		if h.items > 0 {
			s := h.shards[0]
			for k := 0; k < h.bins; k++ {
				c := s[k]
				index[k] = run
				s[k] = run
				run += c
			}
		}
		index[h.bins] = run
		h.index = index
		return index
	}
	// Merge shards by key range into per-key totals...
	counts := make([]int64, h.bins)
	h.m.ForBlocked(h.bins, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			var c int64
			for _, s := range h.shards {
				c += s[k]
			}
			counts[k] = c
		}
	})
	// ...scan them...
	index := h.m.PrefixSum(counts, 0)
	// ...and turn each shard cell into worker w's starting offset for key k:
	// index[k] plus everything earlier workers will place under k.
	h.m.ForBlocked(h.bins, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			run := index[k]
			for _, s := range h.shards {
				c := s[k]
				s[k] = run
				run += c
			}
		}
	})
	h.index = index
	return index
}

// Scatter runs the stable placement pass: every item i in [0, items) is
// re-walked under the same per-worker partition as the counting pass, and
// place(i, pos) is invoked with the item's final position in counting-sorted
// order — items are grouped by key, keys ascending, and items sharing a key
// keep their original relative order (stability). place runs concurrently on
// the machine's workers; distinct calls always receive distinct pos values,
// so writing result[pos] needs no synchronization. Scatter consumes the
// per-worker offsets and may run only once per histogram.
func (h *Histogram) Scatter(place func(i int, pos int64)) {
	h.Index()
	if h.scatter {
		panic("par: Histogram.Scatter called twice (offsets are consumed by the first pass)")
	}
	h.scatter = true
	if h.items == 0 {
		return
	}
	h.m.ForWorker(h.items, h.active, func(w, lo, hi int) {
		off := h.shards[w]
		for i := lo; i < hi; i++ {
			k := h.key(i)
			pos := off[k]
			off[k] = pos + 1
			place(i, pos)
		}
	})
}

// prefixSumSerialMin is the length below which PrefixSum runs serially: the
// two-pass parallel scan reads the input twice, so it needs enough elements
// to amortize two region launches.
const prefixSumSerialMin = 1 << 12

// PrefixSum returns the exclusive prefix sum of counts as a fresh slice of
// length len(counts)+1: out[0] = 0, out[i+1] = out[i] + counts[i]. The
// result has exactly the CSR index-array shape (out[len(counts)] is the
// total). Long inputs use the blocked two-pass parallel scan: per-block
// sums, a serial scan over the block sums, then per-block exclusive scans
// seeded by the block offsets.
func (m *Machine) PrefixSum(counts []int64, workers int) []int64 {
	n := len(counts)
	out := make([]int64, n+1)
	active := m.clamp(workers, n)
	if n < prefixSumSerialMin || active == 1 {
		var run int64
		for i, c := range counts {
			out[i] = run
			run += c
		}
		out[n] = run
		return out
	}
	sums := make([]int64, active)
	m.ForWorker(n, active, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		sums[w] = s
	})
	var run int64
	for w, s := range sums {
		sums[w] = run
		run += s
	}
	m.ForWorker(n, active, func(w, lo, hi int) {
		r := sums[w]
		for i := lo; i < hi; i++ {
			out[i] = r
			r += counts[i]
		}
	})
	out[n] = run
	return out
}

// ReduceMaxInt64 computes the maximum of fn(lo, hi) over statically
// partitioned ranges, one partial per slot, combined serially after the
// barrier. When n <= 0 it returns math.MinInt64 (the max identity), so
// callers folding, say, "largest endpoint in an edge list" can distinguish
// the empty input.
func (m *Machine) ReduceMaxInt64(n, workers int, fn func(lo, hi int) int64) int64 {
	if n <= 0 {
		return math.MinInt64
	}
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		return fn(0, n)
	}
	partial := make([]int64, active)
	m.dispatch(active, func(slot int) {
		partial[slot] = fn(slot*n/active, (slot+1)*n/active)
	})
	max := partial[0]
	for _, p := range partial[1:] {
		if p > max {
			max = p
		}
	}
	return max
}
