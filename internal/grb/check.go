package grb

import (
	"fmt"
	"math/bits"

	"gapbench/internal/invariant"
)

// grbcheck is the package's runtime sanitizer: structural invariants of the
// opaque vector/matrix representations are asserted at every operation
// boundary, and a violation panics naming the invariant, the operation, and
// the offending position. SuiteSparse ships the same idea as GxB_*_check;
// here it exists because the formats are easy to corrupt from inside the
// package (the algorithm layer in internal/lagraph reaches into ind/val for
// speed, exactly like LAGraph's pack/unpack does) and a silently unsorted
// sparse list degrades into wrong answers, not crashes.
//
// The checks are compiled unconditionally and armed by the tree's one gate,
// invariant.Armed (build with -tags=check). The panic text keeps the
// "grbcheck" family name so a report says which sanitizer fired.

// checkFail reports a violated invariant. The invariant name is the stable,
// grep-able identifier tests assert on.
func checkFail(op, name, detail string) {
	panic(fmt.Sprintf("grb: grbcheck: %s: invariant %q violated: %s", op, name, detail))
}

// checkVector asserts the representation invariants of v for its current
// format:
//
//	sparse-length-agreement  len(ind) == len(val)
//	sparse-sorted-unique     ind is strictly increasing
//	index-in-range           every stored index is in [0, n)
//	dense-length             bitmap/full backing array spans all n entries
//	bitmap-present-length    bitmap presence bitset spans all n entries
func checkVector[T Number](op string, v *Vector[T]) {
	if !invariant.Armed() || v == nil {
		return
	}
	switch v.format {
	case Sparse:
		if len(v.ind) != len(v.val) {
			checkFail(op, "sparse-length-agreement",
				fmt.Sprintf("%d indices but %d values", len(v.ind), len(v.val)))
		}
		for k, i := range v.ind {
			if i < 0 || i >= v.n {
				checkFail(op, "index-in-range",
					fmt.Sprintf("ind[%d] = %d outside [0, %d)", k, i, v.n))
			}
			if k > 0 && v.ind[k-1] >= i {
				checkFail(op, "sparse-sorted-unique",
					fmt.Sprintf("ind[%d] = %d does not follow ind[%d] = %d", k, i, k-1, v.ind[k-1]))
			}
		}
	case Bitmap:
		if Index(len(v.dense)) != v.n {
			checkFail(op, "dense-length",
				fmt.Sprintf("dense has %d entries, vector size is %d", len(v.dense), v.n))
		}
		if v.present == nil || v.present.Len() != v.n {
			got := Index(-1)
			if v.present != nil {
				got = v.present.Len()
			}
			checkFail(op, "bitmap-present-length",
				fmt.Sprintf("presence bitset spans %d entries, vector size is %d", got, v.n))
		}
	default: // Full
		if Index(len(v.dense)) != v.n {
			checkFail(op, "dense-length",
				fmt.Sprintf("dense has %d entries, vector size is %d", len(v.dense), v.n))
		}
	}
}

// checkMatrix asserts the CSR invariants of m:
//
//	rowptr-length    len(rowPtr) == nrows+1 and rowPtr[0] == 0
//	rowptr-monotone  rowPtr is nondecreasing and ends at len(colInd)
//	colind-in-range  every column index is in [0, ncols)
//	weight-length    weight is nil or parallel to colInd
func checkMatrix(op string, m *Matrix) {
	if !invariant.Armed() || m == nil {
		return
	}
	if Index(len(m.rowPtr)) != m.nrows+1 || m.rowPtr[0] != 0 {
		checkFail(op, "rowptr-length",
			fmt.Sprintf("rowPtr has %d entries for %d rows (rowPtr[0] must be 0)", len(m.rowPtr), m.nrows))
	}
	for r := Index(0); r < m.nrows; r++ {
		if m.rowPtr[r+1] < m.rowPtr[r] {
			checkFail(op, "rowptr-monotone",
				fmt.Sprintf("rowPtr[%d] = %d < rowPtr[%d] = %d", r+1, m.rowPtr[r+1], r, m.rowPtr[r]))
		}
	}
	if m.rowPtr[m.nrows] != Index(len(m.colInd)) {
		checkFail(op, "rowptr-monotone",
			fmt.Sprintf("rowPtr[%d] = %d but %d entries are stored", m.nrows, m.rowPtr[m.nrows], len(m.colInd)))
	}
	for t, c := range m.colInd {
		if c < 0 || c >= m.ncols {
			checkFail(op, "colind-in-range",
				fmt.Sprintf("colInd[%d] = %d outside [0, %d)", t, c, m.ncols))
		}
	}
	if m.weight != nil && len(m.weight) != len(m.colInd) {
		checkFail(op, "weight-length",
			fmt.Sprintf("%d weights for %d entries", len(m.weight), len(m.colInd)))
	}
}

// checkRowsSorted asserts the row order that binary searches and sorted
// merges over m's rows rely on (checkMatrix leaves order alone, so a matrix
// that only feeds row scans may hold duplicates):
//
//	row-sorted-unique  column indices strictly increase within each row
func checkRowsSorted(op string, m *Matrix) {
	if !invariant.Armed() || m == nil {
		return
	}
	for r := Index(0); r < m.nrows; r++ {
		for t := m.rowPtr[r] + 1; t < m.rowPtr[r+1]; t++ {
			if m.colInd[t-1] >= m.colInd[t] {
				checkFail(op, "row-sorted-unique",
					fmt.Sprintf("row %d: colInd[%d] = %d does not follow colInd[%d] = %d", r, t, m.colInd[t], t-1, m.colInd[t-1]))
			}
		}
	}
}

// checkDenseMatrix asserts the representation invariants of a k-by-n dense
// matrix at a batched product's boundary, each row being a bitmap vector:
//
//	dense-row-length       every row's values span all n columns
//	dense-presence-length  every row's presence bitmap spans exactly n columns
//	dense-presence-tail    no presence bit is set at or past column n
func checkDenseMatrix(op string, d *DenseMatrix, n Index) {
	if !invariant.Armed() || d == nil {
		return
	}
	for r, v := range d.row {
		if v.n != n || Index(len(v.dense)) != n {
			checkFail(op, "dense-row-length",
				fmt.Sprintf("row %d has size %d and %d values, operand has %d columns", r, v.n, len(v.dense), n))
		}
		if v.present == nil || v.present.Len() != n || Index(len(v.present.Words())) != (n+63)/64 {
			got := Index(-1)
			if v.present != nil {
				got = v.present.Len()
			}
			checkFail(op, "dense-presence-length",
				fmt.Sprintf("row %d presence spans %d entries, operand has %d columns", r, got, n))
		}
		if tail := uint(n & 63); tail != 0 {
			words := v.present.Words()
			if stray := words[len(words)-1] >> tail; stray != 0 {
				checkFail(op, "dense-presence-tail",
					fmt.Sprintf("row %d marks column %d present, past the last column %d",
						r, n+Index(bits.TrailingZeros64(stray)), n-1))
			}
		}
	}
}

// checkMask asserts that a non-nil mask spans the output it guards:
//
//	mask-length  mask presence bitset spans all n output positions
func checkMask(op string, mask *Mask, n Index) {
	if !invariant.Armed() || mask == nil {
		return
	}
	if mask.present.Len() != n {
		checkFail(op, "mask-length",
			fmt.Sprintf("mask spans %d entries, output size is %d", mask.present.Len(), n))
	}
}

// checkLengths asserts two parallel operand arrays agree:
//
//	operand-length-agreement  index and value operands are parallel
func checkLengths(op string, nIdx, nVal int) {
	if !invariant.Armed() {
		return
	}
	if nIdx != nVal {
		checkFail(op, "operand-length-agreement",
			fmt.Sprintf("%d indices but %d values", nIdx, nVal))
	}
}
