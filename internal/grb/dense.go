package grb

import (
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// DenseMatrix is a k-by-n dense matrix with structural presence per entry —
// the "dense and 4-by-n" operand §V-E says dominates LAGraph's batched
// Brandes: one row per BC root, one column per vertex, so all four frontiers
// advance through single bulk operations. Each row is a bitmap-format
// vector, so a row of the batched product is exactly one masked vector
// product and runs through the same push and pull kernels.
type DenseMatrix struct {
	row []*Vector[float64]
	// partial is the parallel push's per-worker scratch, one for all rows:
	// rows run one after another, and a recycled output brings it along.
	partial [][]entry[float64]
}

// NewDenseMatrix returns an empty k-by-n dense matrix.
func NewDenseMatrix(k int, n Index) *DenseMatrix {
	d := &DenseMatrix{row: make([]*Vector[float64], k)}
	for r := range d.row {
		d.row[r] = newBitmap[float64](n)
	}
	return d
}

// Set stores value at (r, c) and marks it present.
func (d *DenseMatrix) Set(r int, c Index, v float64) { d.row[r].SetElement(c, v) }

// Clear drops every entry by resetting presence only. The values stay behind
// as garbage, which is sound because every reader checks presence first — the
// rule recycledOut follows for vectors.
func (d *DenseMatrix) Clear() {
	for _, v := range d.row {
		v.present.Reset()
	}
}

// RowStructure exposes row r's presence bitmap (for masks).
func (d *DenseMatrix) RowStructure(r int) *graph.Bitmap { return d.row[r].present }

// RowValues exposes row r's backing values. Only positions present in
// RowStructure(r) are meaningful.
func (d *DenseMatrix) RowValues(r int) []float64 { return d.row[r].dense }

// DenseMxM computes out<rowMasks> = F * A over the plus_first semiring for a
// dense k-by-n F: out[r][j] = Σ_{k: F[r][k] present, A[k][j] present} F[r][k],
// with each output row masked by rowMask(r). This is one batched frontier
// advance for all k BC roots — the matrix-matrix product §V-E describes.
//
// out is caller-supplied and recycled: its old entries are dropped (presence
// only, see Clear) and it must not be f. Each row is dispatched on its own,
// by the rule PushPullVxM uses (choosePull) over the row's accounting in
// st[r]; a nil st, or a nil entry, pins that row to push. The scout count is
// the degree sum of the row's present columns, gathered by a word scan of the
// row's presence, and the row then runs the push or pull kernel directly —
// no scout region per root per level. Every direction adds a column's
// contributions in ascending source order, so all produce the same floats.
func DenseMxM(exec *par.Machine, out, f *DenseMatrix, a, at *Matrix, rowMask func(r int) *Mask, st []*PushPullState) {
	checkMatrix("DenseMxM input A", a)
	checkMatrix("DenseMxM input A'", at)
	checkDenseMatrix("DenseMxM input F", f, a.nrows)
	checkDenseMatrix("DenseMxM output", out, a.ncols)
	if out == f {
		panic("grb: DenseMxM output aliases its input")
	}
	s := PlusFirst()
	out.Clear()
	for r, q := range f.row {
		mask := rowMask(r)
		checkMask("DenseMxM row mask", mask, a.ncols)
		var scout Index
		q.present.Each(func(k Index) { scout += a.RowDegree(k) })
		if scout == 0 {
			continue
		}
		if st != nil && st[r] != nil && st[r].choosePull(scout, mask, a.nrows) {
			pull(exec, at, q, s, mask, out.row[r], &st[r].rowsBuf)
		} else {
			push(exec, q, a, s, mask, scout, out.row[r], &out.partial)
		}
	}
	checkDenseMatrix("DenseMxM result", out, a.ncols)
}
