package grb

import "gapbench/internal/par"

// DenseMatrix is a k-by-n dense matrix with structural presence per entry —
// the "dense and 4-by-n" operand §V-E says dominates LAGraph's batched
// Brandes: one row per BC root, one column per vertex, so all four frontiers
// advance through single bulk operations.
type DenseMatrix struct {
	rows int
	n    Index
	val  [][]float64
	pres []*Bitset

	// Scratch DenseMxM keeps on the matrix it writes into, so a recycled
	// output brings its buffers along: the gathered source columns of the row
	// in flight and the per-worker scatter partials.
	active  []Index
	partial [][]denseContrib
}

// denseContrib is one scattered (column, value) contribution of a parallel
// push row.
type denseContrib struct {
	j Index
	x float64
}

// NewDenseMatrix returns an empty k-by-n dense matrix.
func NewDenseMatrix(k int, n Index) *DenseMatrix {
	d := &DenseMatrix{rows: k, n: n, val: make([][]float64, k), pres: make([]*Bitset, k)}
	for r := 0; r < k; r++ {
		d.val[r] = make([]float64, n)
		d.pres[r] = NewBitset(n)
	}
	return d
}

// Set stores value at (r, c) and marks it present.
func (d *DenseMatrix) Set(r int, c Index, v float64) {
	d.val[r][c] = v
	d.pres[r].Set(c)
}

// Get returns the value and presence at (r, c).
func (d *DenseMatrix) Get(r int, c Index) (float64, bool) {
	return d.val[r][c], d.pres[r].Get(c)
}

// Clear drops every entry by resetting presence only. The values stay behind
// as garbage, which is sound because every reader checks presence first — the
// rule recycledOut follows for vectors.
func (d *DenseMatrix) Clear() {
	for _, p := range d.pres {
		p.Reset()
	}
}

// RowStructure exposes row r's presence bitset (for masks).
func (d *DenseMatrix) RowStructure(r int) *Bitset { return d.pres[r] }

// RowValues exposes row r's backing values. Only positions present in
// RowStructure(r) are meaningful.
func (d *DenseMatrix) RowValues(r int) []float64 { return d.val[r] }

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
// row's presence. Push scatters along a's rows — serially below
// pushSerialCutoff, where a region launch costs more than the scatter, else
// through per-worker partials merged in worker order; pull gathers over at
// (a's transpose) restricted to the mask's survivors. Every direction adds a
// column's contributions in ascending source order, so all three produce the
// same floats.
func DenseMxM(exec *par.Machine, out, f *DenseMatrix, a, at *Matrix, rowMask func(r int) *Mask, st []*PushPullState, workers int) {
	checkMatrix("DenseMxM input A", a)
	checkMatrix("DenseMxM input A'", at)
	checkDenseMatrix("DenseMxM input F", f, a.nrows)
	checkDenseMatrix("DenseMxM output", out, a.ncols)
	if out == f {
		panic("grb: DenseMxM output aliases its input")
	}
	if workers < 1 {
		workers = 1
	}
	out.Clear()
	for r := 0; r < f.rows; r++ {
		mask := rowMask(r)
		checkMask("DenseMxM row mask", mask, a.ncols)
		src := f.val[r]
		pres := f.pres[r]
		dst := out.val[r]
		dstPres := out.pres[r]
		active := out.active[:0]
		var scout Index
		pres.Each(func(k Index) {
			active = append(active, k)
			scout += a.RowDegree(k)
		})
		out.active = active
		if scout == 0 {
			continue
		}
		var rst *PushPullState
		if st != nil {
			rst = st[r]
		}
		if rst != nil && rst.choosePull(scout, mask, a.nrows) {
			denseRowPull(exec, at, src, pres, dst, dstPres, mask, rst, workers)
			continue
		}
		if scout <= pushSerialCutoff {
			for _, k := range active {
				x := src[k]
				cols, _ := a.Row(k)
				for _, j := range cols {
					if mask.Allow(j) {
						plusInto(dst, dstPres, j, x)
					}
				}
			}
			continue
		}
		if len(out.partial) < workers {
			out.partial = make([][]denseContrib, workers)
		}
		partial := out.partial[:workers]
		for w := range partial {
			partial[w] = partial[w][:0]
		}
		exec.ForWorker(len(active), workers, func(w, lo, hi int) {
			local := partial[w]
			for _, k := range active[lo:hi] {
				x := src[k]
				cols, _ := a.Row(k)
				for _, j := range cols {
					if mask.Allow(j) {
						local = append(local, denseContrib{j, x})
					}
				}
			}
			partial[w] = local
		})
		for _, local := range partial {
			for _, e := range local {
				plusInto(dst, dstPres, e.j, e.x)
			}
		}
	}
	checkDenseMatrix("DenseMxM result", out, a.ncols)
}

// plusInto accumulates x into position j of a presence-guarded row: the first
// contribution overwrites whatever stale value a recycled row holds there.
func plusInto(dst []float64, pres *Bitset, j Index, x float64) {
	if pres.Get(j) {
		dst[j] += x
	} else {
		dst[j] = x
		pres.Set(j)
	}
}

// denseRowPull is one row of DenseMxM in the pull direction: every output
// column the mask allows sums the present source entries along its at row.
// Survivor sets too small to repay a region launch run in the calling
// goroutine, like vxmPull's.
func denseRowPull(exec *par.Machine, at *Matrix, src []float64, pres *Bitset, dst []float64, dstPres *Bitset, mask *Mask, st *PushPullState, workers int) {
	pullCol := func(j Index) {
		cols, _ := at.Row(j)
		var acc float64
		hit := false
		for _, k := range cols {
			if pres.Get(k) {
				acc += src[k]
				hit = true
			}
		}
		if hit {
			dst[j] = acc
			dstPres.SetAtomic(j)
		}
	}
	rows, ok := maskSurvivorRows(exec, mask, at.nrows, st.rowsBuf, workers)
	if !ok {
		// No mask: every output column is live.
		exec.ForDynamic(int(at.nrows), 64, workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				pullCol(Index(j))
			}
		})
		return
	}
	st.rowsBuf = rows[:0]
	if len(rows) <= pullSerialRows {
		for _, j := range rows {
			pullCol(j)
		}
		return
	}
	exec.ForDynamic(len(rows), 64, workers, func(lo, hi int) {
		for _, j := range rows[lo:hi] {
			pullCol(j)
		}
	})
}
