//go:build grbcheck

package grb

import (
	"gapbench/internal/par"

	"strings"
	"testing"
)

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

// TestGrbcheckEnabled guards the build wiring: this file only compiles under
// the grbcheck tag, and the tag must have flipped the gate on.
func TestGrbcheckEnabled(t *testing.T) {
	if !grbcheckEnabled {
		t.Fatal("built with -tags=grbcheck but the sanitizer gate is off")
	}
}

// TestGrbcheckCleanOpsPass exercises each checked operation with healthy
// operands: the sanitizer must stay silent on well-formed inputs.
func TestGrbcheckCleanOpsPass(t *testing.T) {
	a := testMatrix(t)
	q := NewSparse[int64](a.ncols)
	q.SetElement(2, 1)
	q.SetElement(0, 1)
	VxM(par.Default(), q, a, MinFirst(), nil, 2)
	MxV(par.Default(), a, q, MinFirst(), nil, 2)
	MxVFullInto(par.Default(), a, NewFull[int64](a.ncols, 1), MinFirst(), NewFull[int64](a.nrows, 0), 2)
	ScatterMin(NewFull[int64](a.ncols, 9), []int64{0, 1}, []int64{3, 4})
	SelectRange(NewFull[int64](a.ncols, 1), 0, 2)
}

// TestGrbcheckCorruptedVector seeds each vector corruption and asserts the
// panic names the violated invariant.
func TestGrbcheckCorruptedVector(t *testing.T) {
	a := testMatrix(t)

	t.Run("unsorted sparse indices", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(0, 1)
		q.SetElement(2, 1)
		q.ind[0], q.ind[1] = q.ind[1], q.ind[0] // corrupt: 2 before 0
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil, 1) },
			"VxM input q", "sparse-sorted-unique")
	})

	t.Run("duplicate sparse index", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(1, 1)
		q.ind = append(q.ind, 1) // corrupt: 1 stored twice
		q.val = append(q.val, 5)
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil, 1) },
			"VxM input q", "sparse-sorted-unique")
	})

	t.Run("index value length mismatch", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(1, 1)
		q.ind = append(q.ind, 3) // corrupt: index without a value
		mustPanic(t, func() { MxV(par.Default(), a, q, MinFirst(), nil, 1) },
			"MxV input q", "sparse-length-agreement")
	})

	t.Run("sparse index out of range", func(t *testing.T) {
		q := NewSparse[int64](a.ncols)
		q.SetElement(1, 1)
		q.ind[0] = a.ncols + 7 // corrupt: beyond the vector
		mustPanic(t, func() { MxV(par.Default(), a, q, MinFirst(), nil, 1) },
			"MxV input q", "index-in-range")
	})

	t.Run("truncated dense backing", func(t *testing.T) {
		q := NewFull[int64](a.ncols, 1)
		q.dense = q.dense[:len(q.dense)-1] // corrupt: short array
		mustPanic(t, func() { MxVFullInto(par.Default(), a, q, MinFirst(), NewFull[int64](a.nrows, 0), 1) },
			"MxVFullInto input q", "dense-length")
	})

	t.Run("bitmap presence bitset wrong length", func(t *testing.T) {
		q := NewFull[int64](a.ncols, 1).ToBitmap()
		q.present = NewBitset(a.ncols - 1) // corrupt: short bitset
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
	q := NewSparse[int64](4)
	q.SetElement(0, 1)

	t.Run("non-monotone rowPtr", func(t *testing.T) {
		a := testMatrix(t)
		a.rowPtr[2], a.rowPtr[1] = a.rowPtr[1], a.rowPtr[2]+2 // corrupt
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil, 1) },
			"VxM input A", "rowptr-monotone")
	})

	t.Run("column index out of range", func(t *testing.T) {
		a := testMatrix(t)
		a.colInd[0] = a.ncols + 3 // corrupt
		mustPanic(t, func() { MxMPlusPairReduce(par.Default(), a, a, 1) },
			"MxMPlusPairReduce input L", "colind-in-range")
	})

	t.Run("rowPtr length wrong", func(t *testing.T) {
		a := testMatrix(t)
		a.rowPtr = a.rowPtr[:len(a.rowPtr)-1] // corrupt
		mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), nil, 1) },
			"VxM input A", "rowptr-length")
	})

	t.Run("weights not parallel to entries", func(t *testing.T) {
		a := testMatrix(t)
		a.weight = []int32{1} // corrupt: 1 weight for many entries
		mustPanic(t, func() { MxV(par.Default(), a, q, MinFirst(), nil, 1) },
			"MxV input A", "weight-length")
	})
}

// TestGrbcheckCorruptedDenseMatrix seeds each dense-operand corruption at the
// batched product's boundary, on the input and on the recycled output.
func TestGrbcheckCorruptedDenseMatrix(t *testing.T) {
	a, at := pushPullMatrices(t)
	n := a.ncols
	noMask := func(int) *Mask { return nil }
	product := func(out, f *DenseMatrix) func() {
		return func() { DenseMxM(par.Default(), out, f, a, at, noMask, nil, 1) }
	}
	frontier := func() *DenseMatrix {
		f := NewDenseMatrix(2, n)
		f.Set(0, 0, 1)
		return f
	}

	t.Run("missing presence row", func(t *testing.T) {
		f := frontier()
		f.pres = f.pres[:1] // corrupt: two rows, one presence bitset
		mustPanic(t, product(NewDenseMatrix(2, n), f), "DenseMxM input F", "dense-row-count")
	})
	t.Run("truncated value row", func(t *testing.T) {
		f := frontier()
		f.val[1] = f.val[1][:n-1] // corrupt: short row
		mustPanic(t, product(NewDenseMatrix(2, n), f), "DenseMxM input F", "dense-row-length")
	})
	t.Run("output presence wrong length", func(t *testing.T) {
		out := NewDenseMatrix(2, n)
		out.pres[0] = NewBitset(n + 64) // corrupt: recycled from a wider product
		mustPanic(t, product(out, frontier()), "DenseMxM output", "dense-presence-length")
	})
	t.Run("presence bit past the last column", func(t *testing.T) {
		f := frontier()
		f.pres[1].words[0] |= 1 << uint(n) // corrupt: column n of n
		mustPanic(t, product(NewDenseMatrix(2, n), f), "DenseMxM input F", "dense-presence-tail")
	})
	t.Run("clean operands pass", func(t *testing.T) {
		product(NewDenseMatrix(2, n), frontier())()
	})
}

// TestGrbcheckCorruptedMask seeds a mask that does not span the output.
func TestGrbcheckCorruptedMask(t *testing.T) {
	a := testMatrix(t)
	q := NewSparse[int64](a.ncols)
	q.SetElement(0, 1)
	short := NewMask(NewBitset(a.ncols-2), false)
	mustPanic(t, func() { VxM(par.Default(), q, a, MinFirst(), short, 1) },
		"VxM mask", "mask-length")
}
