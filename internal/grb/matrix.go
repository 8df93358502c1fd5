package grb

import (
	"gapbench/internal/graph"
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

// Tril returns the strictly-lower-triangular part of m (entries with
// col < row + k, GxB_select with GxB_TRIL; k = -1 gives L = tril(A,-1)).
func (m *Matrix) Tril(k Index) *Matrix {
	return m.selectCols(func(row, col Index) bool { return col <= row+k })
}

// Triu returns the upper-triangular part of m (entries with col >= row + k;
// k = 1 gives U = triu(A,1)).
func (m *Matrix) Triu(k Index) *Matrix {
	return m.selectCols(func(row, col Index) bool { return col >= row+k })
}

func (m *Matrix) selectCols(keep func(row, col Index) bool) *Matrix {
	out := &Matrix{nrows: m.nrows, ncols: m.ncols, rowPtr: make([]Index, m.nrows+1)}
	for r := Index(0); r < m.nrows; r++ {
		cols, ws := m.Row(r)
		for i, c := range cols {
			if keep(r, c) {
				out.colInd = append(out.colInd, c)
				if ws != nil {
					out.weight = append(out.weight, ws[i])
				}
			}
		}
		out.rowPtr[r+1] = Index(len(out.colInd))
	}
	if m.weight == nil {
		out.weight = nil
	}
	return out
}
