package grb

import (
	"strings"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/invariant"
	"gapbench/internal/par"
)

// requireArmed skips a sanitizer test in an unarmed build (no -tags=check).
func requireArmed(t *testing.T) {
	t.Helper()
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
}

// mustPanic runs fn and asserts it panics with a grbcheck message containing
// every want substring (the op name and the invariant identifier).
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("operation on corrupted operand did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want a grbcheck string", r, r)
		}
		if !strings.HasPrefix(msg, "grb: grbcheck: ") {
			t.Fatalf("panic %q is not a grbcheck report", msg)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q does not name %q", msg, w)
			}
		}
	}()
	fn()
}

func testMatrix(t *testing.T) *Matrix {
	t.Helper()
	a, _ := pushPullMatrices(t)
	return a
}

// TestGrbcheckCleanOpsPass exercises each checked operation with healthy
// operands: the sanitizer must stay silent on well-formed inputs.
func TestGrbcheckCleanOpsPass(t *testing.T) {
	requireArmed(t)
	a := testMatrix(t)
	q := NewSparse[int64](a.ncols)
	q.SetElement(2, 1)
	q.SetElement(0, 1)
	VxM(par.Default(), q, a, MinFirst(), nil)
	MxV(par.Default(), a, q, MinFirst(), nil)
	MxVFullInto(par.Default(), a, NewFull[int64](a.ncols, 1), MinFirst(), NewFull[int64](a.nrows, 0))
	ScatterMin(NewFull[int64](a.ncols, 9), []int64{0, 1}, []int64{3, 4})
	SelectRange(NewFull[int64](a.ncols, 1), 0, 2)
	MxMPlusPairReduce(par.Default(), a.Tril(par.Default(), -1), a.Triu(par.Default(), 1))
}

// TestGrbcheckCorruptedVector seeds each vector corruption and asserts the
// panic names the violated invariant.
func TestGrbcheckCorruptedVector(t *testing.T) {
	requireArmed(t)
	a := testMatrix(t)

	t.Run("unsorted sparse indices", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(0, 1)
		q.SetElement(2, 1)
		q.ind[0], q.ind[1] = q.ind[1], q.ind[0] // corrupt: 2 before 0
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil) },
			"VxM input q", "sparse-sorted-unique")
	})

	t.Run("duplicate sparse index", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(1, 1)
		q.ind = append(q.ind, 1) // corrupt: 1 stored twice
		q.val = append(q.val, 5)
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil) },
			"VxM input q", "sparse-sorted-unique")
	})

	t.Run("index value length mismatch", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(1, 1)
		q.ind = append(q.ind, 3) // corrupt: index without a value
		mustPanic(t, func() { MxV(par.Default(), a, q, MinFirst(), nil) },
			"MxV input q", "sparse-length-agreement")
	})

	t.Run("sparse index out of range", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(1, 1)
		q.ind[0] = a.ncols + 7 // corrupt: beyond the vector
		mustPanic(t, func() { MxV(par.Default(), a, q, MinFirst(), nil) },
			"MxV input q", "index-in-range")
	})

	t.Run("truncated dense backing", func(t *testing.T) {
		q := NewFull[int64](a.ncols, 1)
		q.dense = q.dense[:len(q.dense)-1] // corrupt: short array
		mustPanic(t, func() { MxVFullInto(par.Default(), a, q, MinFirst(), NewFull[int64](a.nrows, 0)) },
			"MxVFullInto input q", "dense-length")
	})

	t.Run("bitmap presence bitset wrong length", func(t *testing.T) {
		q := NewFull[int64](a.ncols, 1).ToBitmap()
		q.present = graph.NewBitmap(a.ncols - 1) // corrupt: short bitset
		mustPanic(t, func() { SelectRange(q, 0, 2) },
			"SelectRange input", "bitmap-present-length")
	})

	t.Run("scatter operand mismatch", func(t *testing.T) {
		dst := NewFull[int64](4, 9)
		mustPanic(t, func() { ScatterMin(dst, []int64{0, 1}, []int64{3}) },
			"ScatterMin", "operand-length-agreement")
	})
}

// TestGrbcheckCorruptedMatrix seeds CSR corruptions.
func TestGrbcheckCorruptedMatrix(t *testing.T) {
	requireArmed(t)
	q := NewSparse[int64](4)
	q.SetElement(0, 1)

	t.Run("non-monotone rowPtr", func(t *testing.T) {
		a := testMatrix(t)
		a.rowPtr[2], a.rowPtr[1] = a.rowPtr[1], a.rowPtr[2]+2 // corrupt
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil) },
			"VxM input A", "rowptr-monotone")
	})

	t.Run("column index out of range", func(t *testing.T) {
		a := testMatrix(t)
		a.colInd[0] = a.ncols + 3 // corrupt
		mustPanic(t, func() { MxMPlusPairReduce(par.Default(), a, a) },
			"MxMPlusPairReduce input L", "colind-in-range")
	})

	t.Run("rowPtr length wrong", func(t *testing.T) {
		a := testMatrix(t)
		a.rowPtr = a.rowPtr[:len(a.rowPtr)-1] // corrupt
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil) },
			"VxM input A", "rowptr-length")
	})

	t.Run("row out of order", func(t *testing.T) {
		// Row 0 holds {2, 1}: a binary search for its band, or a sorted
		// merge against it, would silently miss entries.
		a := &Matrix{nrows: 3, ncols: 3, rowPtr: []Index{0, 2, 2, 3}, colInd: []Index{2, 1, 0}}
		mustPanic(t, func() { a.Tril(par.Default(), -1) }, "Tril input", "row-sorted-unique")
		mustPanic(t, func() { a.Triu(par.Default(), 1) }, "Triu input", "row-sorted-unique")
		mustPanic(t, func() { MxMPlusPairReduce(par.Default(), a, a) },
			"MxMPlusPairReduce input L", "row-sorted-unique")
	})

	t.Run("duplicate entry in a row", func(t *testing.T) {
		a := &Matrix{nrows: 3, ncols: 3, rowPtr: []Index{0, 0, 1, 3}, colInd: []Index{0, 1, 1}}
		mustPanic(t, func() { a.Triu(par.Default(), 1) }, "Triu input", "row-sorted-unique")
	})

	t.Run("weights not parallel to entries", func(t *testing.T) {
		a := testMatrix(t)
		a.weight = []int32{1} // corrupt: 1 weight for many entries
		mustPanic(t, func() { MxV(par.Default(), a, q, MinFirst(), nil) },
			"MxV input A", "weight-length")
	})
}

// TestGrbcheckCorruptedDenseMatrix seeds each dense-operand corruption at the
// batched product's boundary, on the input and on the recycled output.
func TestGrbcheckCorruptedDenseMatrix(t *testing.T) {
	requireArmed(t)
	a, at := pushPullMatrices(t)
	n := a.ncols
	noMask := func(int) *Mask { return nil }
	product := func(out, f *DenseMatrix) func() {
		return func() { DenseMxM(par.Default(), out, f, a, at, noMask, nil) }
	}
	frontier := func() *DenseMatrix {
		f := NewDenseMatrix(2, n)
		f.Set(0, 0, 1)
		return f
	}

	t.Run("truncated value row", func(t *testing.T) {
		f := frontier()
		f.row[1].dense = f.row[1].dense[:n-1] // corrupt: short row
		mustPanic(t, product(NewDenseMatrix(2, n), f), "DenseMxM input F", "dense-row-length")
	})
	t.Run("row of another width", func(t *testing.T) {
		f := frontier()
		f.row[1] = newBitmap[float64](n + 1) // corrupt: a row from a wider operand
		mustPanic(t, product(NewDenseMatrix(2, n), f), "DenseMxM input F", "dense-row-length")
	})
	t.Run("output presence wrong length", func(t *testing.T) {
		out := NewDenseMatrix(2, n)
		out.row[0].present = graph.NewBitmap(n + 64) // corrupt: recycled from a wider product
		mustPanic(t, product(out, frontier()), "DenseMxM output", "dense-presence-length")
	})
	t.Run("presence bit past the last column", func(t *testing.T) {
		f := frontier()
		f.row[1].present.Words()[0] |= 1 << uint(n) // corrupt: column n of n
		mustPanic(t, product(NewDenseMatrix(2, n), f), "DenseMxM input F", "dense-presence-tail")
	})
	t.Run("clean operands pass", func(t *testing.T) {
		product(NewDenseMatrix(2, n), frontier())()
	})
}

// TestGrbcheckCorruptedMask seeds a mask that does not span the output.
func TestGrbcheckCorruptedMask(t *testing.T) {
	requireArmed(t)
	a := testMatrix(t)
	q := NewSparse[int64](a.ncols)
	q.SetElement(0, 1)
	short := NewMask(graph.NewBitmap(a.ncols-2), false)
	mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), short) },
		"VxM mask", "mask-length")
}
