package graph

import (
	"fmt"
	"math"

	"gapbench/internal/par"
)

// Edge is one directed edge (or one endpoint pair of an undirected edge) in a
// builder input list.
type Edge struct {
	U, V NodeID
}

// WEdge is an Edge with a weight.
type WEdge struct {
	U, V NodeID
	W    Weight
}

// BuildOptions configures CSR construction.
type BuildOptions struct {
	// NumNodes fixes the vertex count. If zero, it is inferred as
	// max(endpoint)+1.
	NumNodes int32
	// Directed selects a directed graph. Undirected graphs store each edge in
	// both directions and alias the in-CSR to the out-CSR.
	Directed bool
	// KeepSelfLoops retains u->u edges. The GAP builder drops them by default
	// (they are meaningless for every benchmark kernel and break TC).
	KeepSelfLoops bool
	// Workers bounds construction parallelism; <1 means the default.
	Workers int
	// Layout selects the vertex layout baked into the built graph.
	// LayoutPlain (the default) keeps input ids; LayoutDegree renumbers by
	// decreasing out-degree after construction, and is recorded in the
	// format-v2 header so loaded graphs know how they were laid out.
	Layout Layout
}

// Build constructs a CSR graph from an unweighted edge list. Adjacency lists
// come out sorted and deduplicated. It returns an error if any endpoint is
// negative or (when NumNodes is set) out of range.
func Build(edges []Edge, opt BuildOptions) (*Graph, error) {
	we := make([]WEdge, len(edges))
	par.ForBlocked(len(edges), opt.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			we[i] = WEdge{U: edges[i].U, V: edges[i].V}
		}
	})
	return build(we, opt, false)
}

// BuildWeighted constructs a weighted CSR graph from a weighted edge list.
// When duplicate edges (same u,v) appear, the one with the smallest weight is
// kept — the only convention under which deduplication cannot change any
// shortest-path answer.
//
// Construction is the GAP reference's parallel two-pass counting sort, not a
// comparison sort: a sharded per-source histogram, an exclusive scan into the
// CSR index, a stable per-worker-offset scatter, then per-vertex segment
// sorts with in-place min-weight deduplication (see par.ShardedHistogram and
// DESIGN.md "The ingest pipeline"). The directed in-CSR is a second
// histogram/scan/scatter over the deduplicated out-CSR — transposing a
// row-sorted CSR with a stable scatter yields row-sorted output directly.
func BuildWeighted(edges []WEdge, opt BuildOptions) (*Graph, error) {
	return build(edges, opt, true)
}

// build is the shared construction core. The counting-sort passes run over
// scratch arrays (the scatter output is dead weight once rows are
// deduplicated), and only the final compaction writes into the graph's
// storage arena — so the arena is exactly final-sized and holds no
// construction garbage.
func build(edges []WEdge, opt BuildOptions, weighted bool) (*Graph, error) {
	n, err := checkEdges(edges, opt)
	if err != nil {
		return nil, err
	}

	// Materialize the full directed edge multiset: as-given for directed
	// graphs, both directions for undirected ones.
	work := expandEdges(edges, opt)

	index, neigh, weight := scatterCSR(n, work, weighted, opt.Workers)
	kept, newIndex := dedupRows(n, index, neigh, weight, opt.Workers)
	g := assembleCSRGraph(n, opt.Directed, weighted, LayoutPlain, index, newIndex, kept, neigh, weight, opt.Workers)
	if opt.Layout == LayoutDegree {
		rg, _ := DegreeRelabel(nil, g)
		if err := g.Close(); err != nil {
			return nil, err
		}
		return rg, nil
	}
	return g, nil
}

// checkEdges validates endpoints and resolves the vertex count. The checks
// run as parallel max-reductions (largest endpoint, largest negated
// endpoint); only when a violation is detected does a serial pass rerun to
// report the first offending edge in input order, exactly as the historical
// serial loop did.
func checkEdges(edges []WEdge, opt BuildOptions) (int32, error) {
	m := len(edges)
	n := opt.NumNodes
	if m == 0 {
		if n < 0 {
			return 0, fmt.Errorf("graph: invalid node count %d", n)
		}
		return n, nil
	}
	maxEnd := par.ReduceMaxInt64(m, opt.Workers, func(lo, hi int) int64 {
		mx := int64(math.MinInt64)
		for i := lo; i < hi; i++ {
			if v := int64(edges[i].U); v > mx {
				mx = v
			}
			if v := int64(edges[i].V); v > mx {
				mx = v
			}
		}
		return mx
	})
	minEnd := -par.ReduceMaxInt64(m, opt.Workers, func(lo, hi int) int64 {
		mx := int64(math.MinInt64)
		for i := lo; i < hi; i++ {
			if v := -int64(edges[i].U); v > mx {
				mx = v
			}
			if v := -int64(edges[i].V); v > mx {
				mx = v
			}
		}
		return mx
	})
	if minEnd < 0 || (opt.NumNodes > 0 && maxEnd >= int64(opt.NumNodes)) {
		// Rare path: rescan serially for the first offender in input order.
		for _, e := range edges {
			if e.U < 0 || e.V < 0 {
				return 0, fmt.Errorf("graph: negative node id in edge (%d,%d)", e.U, e.V)
			}
			if opt.NumNodes > 0 && (e.U >= opt.NumNodes || e.V >= opt.NumNodes) {
				return 0, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.U, e.V, opt.NumNodes)
			}
		}
	}
	if opt.NumNodes == 0 {
		// Inference via the max-reduce; int32 wraparound on max(endpoint)+1
		// surfaces below as the historical invalid-count error.
		n = int32(maxEnd) + 1
	}
	if n < 0 {
		return 0, fmt.Errorf("graph: invalid node count %d", n)
	}
	return n, nil
}

// expandEdges materializes the directed edge multiset the CSR is built from:
// self-loops dropped (unless kept), and for undirected graphs each edge
// emitted in both directions. The output order matches the historical serial
// append — a parallel filter over static per-worker ranges writes each
// worker's survivors contiguously at its scanned offset, so global input
// order is preserved and downstream stability arguments still hold.
func expandEdges(edges []WEdge, opt BuildOptions) []WEdge {
	slots := opt.Workers
	if slots < 1 {
		slots = par.DefaultWorkers()
	}
	// counts is indexed by ForWorker slot id; both passes use the identical
	// (n, workers) partition, so per-slot ranges line up.
	counts := make([]int64, slots)
	par.ForWorker(len(edges), opt.Workers, func(w, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V {
				if opt.KeepSelfLoops {
					c++
				}
				continue
			}
			c++
			if !opt.Directed {
				c++
			}
		}
		counts[w] = c
	})
	var total int64
	for w, c := range counts {
		counts[w] = total
		total += c
	}
	work := make([]WEdge, total)
	par.ForWorker(len(edges), opt.Workers, func(w, lo, hi int) {
		pos := counts[w]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V {
				if opt.KeepSelfLoops {
					work[pos] = e
					pos++
				}
				continue
			}
			work[pos] = e
			pos++
			if !opt.Directed {
				work[pos] = WEdge{U: e.V, V: e.U, W: e.W}
				pos++
			}
		}
	})
	return work
}

// scatterCSR packs a directed edge multiset into scratch index/neighbor/
// weight arrays via the counting-sort pipeline: per-source histogram,
// exclusive scan, stable scatter. No comparison sort ever sees the full
// edge list; rows are sorted and deduplicated afterwards by dedupRows.
func scatterCSR(n int32, edges []WEdge, weighted bool, workers int) ([]int64, []NodeID, []Weight) {
	h := par.ShardedHistogram(len(edges), int(n), workers, func(i int) int { return int(edges[i].U) })
	index := h.Index()
	neigh := make([]NodeID, len(edges))
	var weight []Weight
	if weighted {
		weight = make([]Weight, len(edges))
	}
	h.Scatter(func(i int, pos int64) {
		neigh[pos] = edges[i].V
		if weight != nil {
			weight[pos] = edges[i].W
		}
	})
	return index, neigh, weight
}

// dedupRows sorts every adjacency segment by (neighbor, weight) and
// deduplicates in place keeping each neighbor's first (minimum-weight)
// entry. It returns the per-row survivor counts and their exclusive scan —
// the compact CSR index. Rows are processed under a dynamic schedule because
// segment lengths are the degree distribution itself: power-law inputs put
// hub rows many orders of magnitude above the mean.
func dedupRows(n int32, index []int64, neigh []NodeID, weight []Weight, workers int) (kept, newIndex []int64) {
	kept = make([]int64, n)
	par.ForDynamic(int(n), 128, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			s, e := index[u], index[u+1]
			vs := neigh[s:e]
			var ws []Weight
			if weight != nil {
				ws = weight[s:e]
			}
			sortRow(vs, ws)
			// First entry of each neighbor run carries the minimum weight.
			k := 0
			for i := 0; i < len(vs); i++ {
				if i > 0 && vs[i] == vs[k-1] {
					continue
				}
				vs[k] = vs[i]
				if ws != nil {
					ws[k] = ws[i]
				}
				k++
			}
			kept[u] = int64(k)
		}
	})
	newIndex = par.PrefixSum(kept, workers)
	return kept, newIndex
}

// assembleCSRGraph allocates the storage arena for the final graph shape and
// fills it: the deduplicated rows (described by the scratch index plus
// per-row survivor counts) compact into the out-sections, and for directed
// graphs the transpose scatters straight into the in-sections. This is the
// single point where builder output becomes graph-owned memory.
func assembleCSRGraph(n int32, directed, weighted bool, layout Layout, index, newIndex, kept []int64, neigh []NodeID, weight []Weight, workers int) *Graph {
	mOut := newIndex[n]
	mIn := int64(0)
	if directed {
		mIn = mOut
	}
	a := newHeapArena(layoutFor(n, mOut, mIn, directed, weighted))
	outIndex := a.int64s(secOutIndex)
	copy(outIndex, newIndex)
	outNeigh := a.int32s(secOutNeigh)
	outWeight := a.int32s(secOutWeight)
	par.ForDynamic(int(n), 128, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			s, d, c := index[u], newIndex[u], kept[u]
			copy(outNeigh[d:d+c], neigh[s:s+c])
			if outWeight != nil {
				copy(outWeight[d:d+c], weight[s:s+c])
			}
		}
	})
	if directed {
		transposeInto(a, n, outIndex, outNeigh, outWeight, workers)
	}
	return graphFromArena(a, layout)
}

// expandRowIDs inverts a CSR index: rows[i] is the row owning position i.
// The scatter passes of transposition and symmetrization need the source
// endpoint of every stored edge without a per-item search.
func expandRowIDs(n int32, index []int64, workers int) []NodeID {
	rows := make([]NodeID, index[n])
	par.ForDynamic(int(n), 256, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for i := index[u]; i < index[u+1]; i++ {
				rows[i] = NodeID(u)
			}
		}
	})
	return rows
}

// transposeInto builds the transpose of a deduplicated, row-sorted CSR
// directly into an arena's in-sections with one histogram/scan/scatter
// round. Stability makes the segment sort unnecessary: items are walked in
// row-major order, so within each output row the (source) values arrive in
// increasing order, and dedup is moot because the input rows were already
// duplicate-free.
func transposeInto(a *Arena, n int32, index []int64, neigh []NodeID, weight []Weight, workers int) {
	rows := expandRowIDs(n, index, workers)
	h := par.ShardedHistogram(len(neigh), int(n), workers, func(i int) int { return int(neigh[i]) })
	copy(a.int64s(secInIndex), h.Index())
	tNeigh := a.int32s(secInNeigh)
	tWeight := a.int32s(secInWeight)
	h.Scatter(func(i int, pos int64) {
		tNeigh[pos] = rows[i]
		if tWeight != nil {
			tWeight[pos] = weight[i]
		}
	})
}

// Undirected returns an undirected view of g: g itself when already
// undirected, otherwise a new symmetrized graph (u–v present when either
// direction was). Triangle counting and connected components consume this,
// mirroring the GAP treatment of directed inputs.
//
// Symmetrization is direct CSR→CSR: a doubled histogram (each stored edge
// u→v counts toward row u and row v), scan, stable scatter of both
// orientations, then the usual segment sort + min-weight dedup — no
// intermediate edge-list materialization. Self-loops are dropped, matching
// the historical path through the default builder options.
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g
	}
	n := g.n
	hasW := g.Weighted()
	src := expandRowIDs(n, g.outIndex, 0)
	dst := g.outNeigh
	ws := g.outWeight
	m := len(dst)
	loops := par.ReduceInt64(m, 0, func(lo, hi int) int64 {
		var c int64
		for i := lo; i < hi; i++ {
			if src[i] == dst[i] {
				c++
			}
		}
		return c
	})
	if loops > 0 {
		// Rare: only graphs built with KeepSelfLoops reach here. Filter the
		// loops out up front so the doubled histogram needs no skip logic.
		fs := make([]NodeID, 0, m-int(loops))
		fd := make([]NodeID, 0, m-int(loops))
		var fw []Weight
		if hasW {
			fw = make([]Weight, 0, m-int(loops))
		}
		for i := 0; i < m; i++ {
			if src[i] == dst[i] {
				continue
			}
			fs = append(fs, src[i])
			fd = append(fd, dst[i])
			if hasW {
				fw = append(fw, ws[i])
			}
		}
		src, dst, ws, m = fs, fd, fw, len(fs)
	}

	// 2m logical items: item i < m is the stored orientation src[i]→dst[i],
	// item m+i the reverse. Stability keeps per-row entries in a
	// deterministic order before the segment sort canonicalizes them.
	h := par.ShardedHistogram(2*m, int(n), 0, func(i int) int {
		if i < m {
			return int(src[i])
		}
		return int(dst[i-m])
	})
	uIndex := h.Index()
	uNeigh := make([]NodeID, 2*m)
	var uWeight []Weight
	if hasW {
		uWeight = make([]Weight, 2*m)
	}
	h.Scatter(func(i int, pos int64) {
		if i < m {
			uNeigh[pos] = dst[i]
			if hasW {
				uWeight[pos] = ws[i]
			}
		} else {
			uNeigh[pos] = src[i-m]
			if hasW {
				uWeight[pos] = ws[i-m]
			}
		}
	})
	kept, newIndex := dedupRows(n, uIndex, uNeigh, uWeight, 0)
	return assembleCSRGraph(n, false, hasW, g.layout, uIndex, newIndex, kept, uNeigh, uWeight, 0)
}

// validateCSR checks one CSR side for structural consistency.
func validateCSR(n int32, side string, index []int64, neigh []NodeID, weight []Weight) error {
	if int64(len(index)) != int64(n)+1 {
		return fmt.Errorf("graph: %s index length %d != n+1 (%d)", side, len(index), int64(n)+1)
	}
	if index[0] != 0 {
		return fmt.Errorf("graph: %s index[0] = %d, want 0", side, index[0])
	}
	if index[n] != int64(len(neigh)) {
		return fmt.Errorf("graph: %s index end %d != neighbor count %d", side, index[n], len(neigh))
	}
	for i := int32(0); i < n; i++ {
		if index[i+1] < index[i] {
			return fmt.Errorf("graph: %s index not monotone at row %d", side, i)
		}
	}
	for _, v := range neigh {
		if v < 0 || v >= n {
			return fmt.Errorf("graph: %s neighbor %d out of range [0,%d)", side, v, n)
		}
	}
	if weight != nil && len(weight) != len(neigh) {
		return fmt.Errorf("graph: %s weight length %d != neighbor count %d", side, len(weight), len(neigh))
	}
	return nil
}
