// Package grb reproduces the SuiteSparse:GraphBLAS substrate the paper
// evaluates: sparse matrices and vectors over semirings, with masked
// matrix-vector products, element-wise operations, selection, and reduction.
// Graph algorithms built on it live in the sibling package lagraph, mirroring
// the GraphBLAS/LAGraph split ("GraphBLAS does not include any graph
// algorithms directly; these are in algorithms that use GraphBLAS").
//
// Two structural costs the paper attributes to GraphBLAS are reproduced
// deliberately:
//
//   - 64-bit indices everywhere (GraphBLAS is designed for 2^60-node graphs,
//     so it "must use 64-bit integers" while other frameworks use 32-bit).
//   - Bulk, unfused operations: every primitive materializes its result, and
//     vectors are converted between sparse, bitmap, and full formats with the
//     conversion time inside the timed region, as §V-A describes.
package grb

import "gapbench/internal/graph"

// Index is a GraphBLAS vertex/matrix index. Deliberately 64-bit; see the
// package comment.
type Index = int64

// Number constrains the value types the semiring operations run over.
type Number interface {
	~int32 | ~int64 | ~float64
}

// Mask is a structural mask for an operation's output, like the C API's
// GrB_Descriptor mask settings: writes to position i are allowed iff
// Allow(i). A nil *Mask allows every position.
type Mask struct {
	present    *graph.Bitmap
	complement bool
}

// NewMask wraps a presence bitset; complement inverts it (the C API's
// GrB_COMP, written <!m> in the paper's pseudocode).
func NewMask(present *graph.Bitmap, complement bool) *Mask {
	return &Mask{present: present, complement: complement}
}

// Allow reports whether the mask permits writing position i.
func (m *Mask) Allow(i Index) bool {
	if m == nil {
		return true
	}
	return m.present.Get(i) != m.complement
}
