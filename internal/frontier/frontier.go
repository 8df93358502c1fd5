// Package frontier is the shared frontier library behind the paper's
// direction-optimizing traversals. It generalizes the vertexset machinery
// that previously lived inside the GraphIt backend — sparse-list and bitmap
// layouts with explicit (timed) conversions, machine-parallel push and pull
// edge sweeps, and the Beamer alpha/beta direction dispatcher — so that any
// framework reproduction can opt into the same infrastructure instead of
// hand-rolling its own. GraphIt's kernels call it directly; GKC's BFS
// uses the dispatcher; NWGraph's bottom-up phase uses the bitmap layout.
//
// Membership/count invariants of the layout conversions are asserted under
// the `grbcheck` build tag (check.go), mirroring the grb sanitizer.
package frontier

import (
	"math/bits"
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// Layout selects the set representation.
type Layout int

// Frontier layouts.
const (
	// SparseList stores frontier vertices as an index list — efficient for
	// small frontiers (push traversals).
	SparseList Layout = iota
	// Bitmap stores the frontier as a bitmap — "advantageous when there are
	// many active elements" (§V-E), and the layout pull traversals need for
	// O(1) membership tests.
	Bitmap
)

// Set is a frontier: a set of active vertices over [0, n) in one of the two
// layouts. Conversions are explicit and timed; §V-A attributes GAP-vs-GraphIt
// BFS differences to "different frontier creation mechanisms".
type Set struct {
	n      int64
	layout Layout
	list   []graph.NodeID
	bits   *graph.Bitmap
	count  int64
	// collect is scratch for Push's gather: keeping it in the (already
	// heap-allocated) result set means the traversal closures capture one
	// pointer instead of forcing a separate accumulator cell to the heap on
	// every sweep.
	collect Collector
}

// NewSet returns an empty set of the given layout over [0, n).
func NewSet(n int64, layout Layout) *Set {
	s := &Set{n: n, layout: layout}
	if layout == Bitmap {
		s.bits = graph.NewBitmap(n)
	}
	return s
}

// FromList builds a sparse set from a list (which it takes ownership of).
func FromList(n int64, list []graph.NodeID) *Set {
	return &Set{n: n, layout: SparseList, list: list, count: int64(len(list))}
}

// Size returns the number of active vertices.
func (s *Set) Size() int64 { return s.count }

// List returns the backing index list of a sparse set (nil for bitmaps —
// convert with ToList first).
func (s *Set) List() []graph.NodeID { return s.list }

// Contains reports membership. The bitmap layout answers in O(1); the
// sparse-list layout scans (callers that test membership in a loop should
// convert with ToBitmap first, which is what the schedules do).
func (s *Set) Contains(v graph.NodeID) bool {
	if s.layout == Bitmap {
		return s.bits.Get(int64(v))
	}
	for _, u := range s.list {
		if u == v {
			return true
		}
	}
	return false
}

// Conversion tile sizes. Work is handed to the machine in word tiles so the
// scheduler polls the cancel token at every tile boundary; below the serial
// threshold a plain scan beats the dispatch cost.
const (
	convertTileWords  = 2048
	serialWordsCutoff = 4096
	convertTileList   = 4096
)

// ToBitmap converts (or returns) the bitmap form. Large conversions scatter
// on the machine with atomic bit sets; tiny ones stay serial.
func (s *Set) ToBitmap(exec *par.Machine, workers int) *Set {
	if s.layout == Bitmap {
		return s
	}
	out := NewSet(s.n, Bitmap)
	if len(s.list) <= convertTileList {
		for _, v := range s.list {
			out.bits.Set(int64(v))
		}
	} else {
		src := s.list // read-only in the closure: captured by value
		exec.ForDynamic(len(src), convertTileList, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out.bits.SetAtomic(int64(src[i]))
			}
		})
	}
	out.count = s.count
	checkConversion("ToBitmap", s, out)
	return out
}

// ToList converts (or returns) the sparse-list form. The bitmap is scanned
// word-at-a-time (popcount + trailing-zero extraction, never per-index), and
// large scans run as a two-pass machine-parallel gather: per-tile popcounts,
// a serial prefix sum, then a parallel fill into the exact-size list — so the
// result is sorted and the machine polls the cancel token between tiles.
func (s *Set) ToList(exec *par.Machine, workers int) *Set {
	if s.layout == SparseList {
		return s
	}
	words := s.bits.Words()
	out := &Set{n: s.n, layout: SparseList}
	if len(words) <= serialWordsCutoff {
		list := make([]graph.NodeID, 0, s.count)
		for wi, w := range words {
			base := int64(wi) << 6
			for ; w != 0; w &= w - 1 {
				list = append(list, graph.NodeID(base+int64(bits.TrailingZeros64(w))))
			}
		}
		out.list = list
		out.count = int64(len(list))
		checkConversion("ToList", s, out)
		return out
	}
	tiles := (len(words) + convertTileWords - 1) / convertTileWords
	offsets := make([]int64, tiles+1)
	exec.ForDynamic(tiles, 1, workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			var cnt int64
			for _, w := range words[t*convertTileWords : min((t+1)*convertTileWords, len(words))] {
				cnt += int64(bits.OnesCount64(w))
			}
			offsets[t+1] = cnt
		}
	})
	for t := 0; t < tiles; t++ {
		offsets[t+1] += offsets[t]
	}
	list := make([]graph.NodeID, offsets[tiles])
	exec.ForDynamic(tiles, 1, workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			pos := offsets[t]
			wlo := t * convertTileWords
			for wi := wlo; wi < min(wlo+convertTileWords, len(words)); wi++ {
				w := words[wi]
				base := int64(wi) << 6
				for ; w != 0; w &= w - 1 {
					list[pos] = graph.NodeID(base + int64(bits.TrailingZeros64(w)))
					pos++
				}
			}
		}
	})
	out.list = list
	out.count = int64(len(list))
	checkConversion("ToList", s, out)
	return out
}

// Push traverses out-edges of the frontier, calling apply(u,v) for each;
// apply returns true when v newly enters the next frontier. The output layout
// follows the schedule.
func Push(exec *par.Machine, g *graph.Graph, cur *Set, layout Layout, workers int, apply func(u, v graph.NodeID) bool) *Set {
	src := cur.ToList(exec, workers)
	out := NewSet(cur.n, layout)
	if layout == Bitmap {
		exec.ForDynamic(len(src.list), 64, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := src.list[i]
				for _, v := range g.OutNeighbors(u) {
					if apply(u, v) {
						if out.bits.SetAtomic(int64(v)) {
							atomic.AddInt64(&out.count, 1)
						}
					}
				}
			}
		})
		return out
	}
	// The collector lives inside the result set, which is heap-bound anyway:
	// the closure captures only the out pointer, so a sweep allocates no
	// extra cell for it.
	exec.ForDynamic(len(src.list), 64, workers, func(lo, hi int) {
		var local []graph.NodeID
		for i := lo; i < hi; i++ {
			u := src.list[i]
			for _, v := range g.OutNeighbors(u) {
				if apply(u, v) {
					local = append(local, v)
				}
			}
		}
		out.collect.Add(local)
	})
	out.list = out.collect.Take()
	out.count = int64(len(out.list))
	return out
}

// Pull scans vertices where cond holds, pulling over in-edges from frontier
// members until applyTo accepts one; accepted vertices form the next frontier
// (bitmap layout).
func Pull(exec *par.Machine, g *graph.Graph, cur *Set, workers int, cond func(v graph.NodeID) bool, applyTo func(u, v graph.NodeID) bool) *Set {
	fb := cur.ToBitmap(exec, workers)
	out := NewSet(cur.n, Bitmap)
	// ReduceInt64 carries the per-chunk counts through the scheduler's own
	// reduction, so the sweep captures no accumulator cell of its own.
	out.count = exec.ReduceInt64(int(cur.n), workers, func(lo, hi int) int64 {
		var local int64
		for vi := lo; vi < hi; vi++ {
			v := graph.NodeID(vi)
			if !cond(v) {
				continue
			}
			for _, u := range g.InNeighbors(v) {
				if fb.bits.Get(int64(u)) && applyTo(u, v) {
					out.bits.SetAtomic(int64(v))
					local++
					break
				}
			}
		}
		return local
	})
	return out
}

// Collector merges per-chunk slices under one lock per flush.
type Collector struct {
	mu  spinMutex
	out []graph.NodeID
}

// Add appends a chunk's local gather.
func (c *Collector) Add(local []graph.NodeID) {
	if len(local) == 0 {
		return
	}
	c.mu.Lock()
	c.out = append(c.out, local...)
	c.mu.Unlock()
}

// Take returns everything collected so far.
func (c *Collector) Take() []graph.NodeID { return c.out }

// Reset detaches the collector from its previous round's slice (which the
// caller keeps as the new frontier).
func (c *Collector) Reset() { c.out = nil }

// spinMutex is a tiny test-and-set lock; the critical sections here are a
// few appends, far shorter than a sync.Mutex slow path.
type spinMutex struct{ v atomic.Int32 }

func (m *spinMutex) Lock() {
	for !m.v.CompareAndSwap(0, 1) {
	}
}
func (m *spinMutex) Unlock() { m.v.Store(0) }
