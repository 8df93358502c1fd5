package grb

import (
	"slices"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// Matrix is a sparse matrix in CSR format with 64-bit indices and optional
// int32 weights. For graph algorithms it is the adjacency matrix: A[k][j]
// present means edge k->j.
type Matrix struct {
	nrows, ncols Index
	rowPtr       []Index
	colInd       []Index
	weight       []int32 // nil for structural (unweighted) matrices
}

// NRows returns the number of rows.
func (m *Matrix) NRows() Index { return m.nrows }

// NVals returns the number of stored entries.
func (m *Matrix) NVals() Index { return Index(len(m.colInd)) }

// Row returns row k's column indices and weights (weights nil when the
// matrix is structural).
func (m *Matrix) Row(k Index) ([]Index, []int32) {
	lo, hi := m.rowPtr[k], m.rowPtr[k+1]
	if m.weight == nil {
		return m.colInd[lo:hi], nil
	}
	return m.colInd[lo:hi], m.weight[lo:hi]
}

// RowDegree returns the number of entries in row k.
func (m *Matrix) RowDegree(k Index) Index { return m.rowPtr[k+1] - m.rowPtr[k] }

// FromGraph converts a CSR graph into an adjacency Matrix. transpose selects
// the in-CSR (A'), which LAGraph keeps alongside A for pull steps. The
// 32-to-64-bit index widening here doubles the adjacency footprint — the
// memory-bandwidth tax §V's "they can all use 32-bit integers, while
// GraphBLAS must use 64-bit integers" describes. withWeights carries the
// graph's edge weights into the matrix (needed only by min-plus SSSP).
func FromGraph(g *graph.Graph, transpose, withWeights bool) *Matrix {
	var index []int64
	var neigh []graph.NodeID
	var ws []graph.Weight
	if transpose {
		index, neigh = g.RawIn()
		ws = g.RawInWeights()
	} else {
		index, neigh = g.RawOut()
		ws = g.RawOutWeights()
	}
	n := Index(g.NumNodes())
	m := &Matrix{
		nrows:  n,
		ncols:  n,
		rowPtr: make([]Index, n+1),
		colInd: make([]Index, len(neigh)),
	}
	copy(m.rowPtr, index)
	for i, v := range neigh {
		m.colInd[i] = Index(v)
	}
	if withWeights && ws != nil {
		m.weight = append([]int32(nil), ws...)
	}
	return m
}

// Tril returns the lower band of m: the entries with col <= row + k
// (GxB_select with GxB_TRIL; k = -1 gives the strictly lower L = tril(A,-1)).
// Rows are sorted, so each row's band is a prefix found by binary search.
// Like GxB_select, it runs in parallel: see selectBand.
func (m *Matrix) Tril(exec *par.Machine, k Index) *Matrix {
	return m.selectBand(exec, "Tril", k, true)
}

// Triu returns the upper band of m: the entries with col >= row + k
// (GxB_select with GxB_TRIU; k = 1 gives U = triu(A,1)), each row's band
// being a suffix found by binary search.
func (m *Matrix) Triu(exec *par.Machine, k Index) *Matrix {
	return m.selectBand(exec, "Triu", k, false)
}

// selectBand copies each row's band — the prefix with col <= row+k when
// lower, else the suffix with col >= row+k — in two ForWorker regions over
// the same static row blocks. The first stores each row's band width in the
// output's rowPtr[r+1] and each block's total; after a serial scan over the
// block totals, the second turns its block's widths into row offsets and
// copies the bands. A region the machine's token cut short leaves the result
// partial; the caller checks exec.Interrupted() before using it.
func (m *Matrix) selectBand(exec *par.Machine, op string, k Index, lower bool) *Matrix {
	checkMatrix(op+" input", m)
	checkRowsSorted(op+" input", m)
	n := int(m.nrows)
	out := &Matrix{nrows: m.nrows, ncols: m.ncols, rowPtr: make([]Index, n+1)}
	slots := exec.Size()
	offset := make([]Index, slots)
	exec.ForWorker(n, slots, func(w, lo, hi int) {
		var total Index
		for r := lo; r < hi; r++ {
			cols := m.colInd[m.rowPtr[r]:m.rowPtr[r+1]]
			var width int
			if lower {
				width, _ = slices.BinarySearch(cols, Index(r)+k+1)
			} else {
				start, _ := slices.BinarySearch(cols, Index(r)+k)
				width = len(cols) - start
			}
			out.rowPtr[r+1] = Index(width)
			total += Index(width)
		}
		offset[w] = total
	})
	var nvals Index
	for w, t := range offset {
		offset[w] = nvals
		nvals += t
	}
	out.colInd = make([]Index, nvals)
	if m.weight != nil {
		out.weight = make([]int32, nvals)
	}
	exec.ForWorker(n, slots, func(w, lo, hi int) {
		at := offset[w]
		for r := lo; r < hi; r++ {
			width := out.rowPtr[r+1]
			src := m.rowPtr[r]
			if !lower {
				src = m.rowPtr[r+1] - width
			}
			copy(out.colInd[at:at+width], m.colInd[src:src+width])
			if m.weight != nil {
				copy(out.weight[at:at+width], m.weight[src:src+width])
			}
			at += width
			out.rowPtr[r+1] = at
		}
	})
	return out
}
