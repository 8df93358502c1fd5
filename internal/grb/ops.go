package grb

import (
	"fmt"

	"gapbench/internal/par"
)

// entry is one scattered (index, value) contribution in a push product.
type entry[T Number] struct {
	j Index
	x T
}

// VxM computes w<mask> = q' * A over the semiring: a push-style product that
// scatters each stored q entry along its matrix row,
//
//	w[j] = ⊕_{k : q[k] present, A[k][j] present}  Mult(q[k], A[k][j], k)
//
// The input is converted to sparse format first (timed, per the SuiteSparse
// behaviour the paper describes) and the result is returned in bitmap
// format. Workers scatter into private buffers that are merged serially —
// the bulk-synchronous structure that gives GraphBLAS its per-operation
// overhead on tiny frontiers. Built-in semirings take specialized loops
// (SuiteSparse's pre-generated kernels); anything else runs the generic
// operator-pointer path.
func VxM[T Number](exec *par.Machine, q *Vector[T], a *Matrix, s Semiring[T], mask *Mask, workers int) *Vector[T] {
	out := &Vector[T]{n: q.n, format: Bitmap, dense: make([]T, q.n), present: NewBitset(q.n)}
	vxmInto(exec, q, a, s, mask, out, workers)
	return out
}

// VxMInto is VxM into a recycled output: out must be a bitmap-format vector of
// a's column count; its old entries are dropped by resetting presence only,
// so a loop of products (delta-stepping's relaxations) allocates one output,
// not one per product.
func VxMInto[T Number](exec *par.Machine, q *Vector[T], a *Matrix, s Semiring[T], mask *Mask, out *Vector[T], workers int) {
	if out.format != Bitmap || out.n != a.ncols {
		panic(fmt.Sprintf("grb: VxMInto output must be a bitmap vector of size %d", a.ncols))
	}
	checkVector("VxMInto output", out)
	out.present.Reset()
	vxmInto(exec, q, a, s, mask, out, workers)
}

// vxmInto is VxM writing into a caller-provided bitmap-format output whose
// presence bitset is clear (the dense backing may hold stale values — every
// write below marks presence first-write-wins, so stale slots stay hidden).
func vxmInto[T Number](exec *par.Machine, q *Vector[T], a *Matrix, s Semiring[T], mask *Mask, out *Vector[T], workers int) {
	checkVector("VxM input q", q)
	checkMatrix("VxM input A", a)
	checkMask("VxM mask", mask, a.ncols)
	qs := q.ToSparse()
	checkVector("VxM sparse-converted q", qs)
	nq := len(qs.ind)
	if workers < 1 {
		workers = 1
	}
	// Per-slot scatter buffers merged serially below: one machine slot per
	// worker over a static partition of the stored q entries (the same
	// bulk-synchronous structure as the old hand-rolled fork-join, minus the
	// per-operation goroutine spawn GraphBLAS pays for on tiny frontiers).
	// Frontiers whose scatter is smaller than a region launch skip the
	// machine entirely and run the same body in the calling goroutine.
	serial := false
	if nq <= 64 {
		var scout Index
		for _, k := range qs.ind {
			scout += a.RowDegree(k)
		}
		serial = scout <= 2048
	}
	if serial {
		workers = 1
	}
	partial := make([][]entry[T], workers)
	scatter := func(w, lo, hi int) {
		var local []entry[T]
		for t := lo; t < hi; t++ {
			k := qs.ind[t]
			qv := qs.val[t]
			cols, ws := a.Row(k)
			switch s.Kind {
			case KindAnySecondi:
				vk := T(k)
				for _, j := range cols {
					if mask.Allow(j) {
						local = append(local, entry[T]{j, vk})
					}
				}
			case KindPlusFirst, KindMinFirst:
				for _, j := range cols {
					if mask.Allow(j) {
						local = append(local, entry[T]{j, qv})
					}
				}
			case KindMinPlus:
				for i, j := range cols {
					if mask.Allow(j) {
						local = append(local, entry[T]{j, qv + T(ws[i])})
					}
				}
			default:
				for i, j := range cols {
					if !mask.Allow(j) {
						continue
					}
					wt := int32(0)
					if ws != nil {
						wt = ws[i]
					}
					local = append(local, entry[T]{j, s.Mult(qv, wt, k)})
				}
			}
		}
		partial[w] = local
	}
	if serial {
		scatter(0, 0, nq)
	} else {
		exec.ForWorker(nq, workers, scatter)
	}

	merge := func(combine func(old, new T) T) {
		for _, local := range partial {
			for _, e := range local {
				if out.present.Get(e.j) {
					out.dense[e.j] = combine(out.dense[e.j], e.x)
				} else {
					out.dense[e.j] = e.x
					out.present.Set(e.j)
				}
			}
		}
	}
	switch s.Kind {
	case KindAnySecondi:
		merge(func(old, _ T) T { return old }) // ANY: first write wins
	case KindMinPlus, KindMinFirst:
		merge(func(old, x T) T {
			if x < old {
				return x
			}
			return old
		})
	case KindPlusFirst, KindPlusPair:
		merge(func(old, x T) T { return old + x })
	default:
		merge(s.Monoid.Op)
	}
	checkVector("VxM output", out)
}

// MxV computes w<mask> = A * q over the semiring: a pull-style product that
// gathers each output row's matrix entries against q,
//
//	w[i] = ⊕_{k : A[i][k] present, q[k] present}  Mult(q[k], A[i][k], k)
//
// q is converted to bitmap format first (timed). ANY monoids exit a row on
// the first contribution, which is what makes the pull direction profitable
// for BFS. The result is returned in bitmap format.
func MxV[T Number](exec *par.Machine, a *Matrix, q *Vector[T], s Semiring[T], mask *Mask, workers int) *Vector[T] {
	checkVector("MxV input q", q)
	checkMatrix("MxV input A", a)
	checkMask("MxV mask", mask, a.nrows)
	qb := q.ToBitmap()
	checkVector("MxV bitmap-converted q", qb)
	out := &Vector[T]{n: a.nrows, format: Bitmap, dense: make([]T, a.nrows), present: NewBitset(a.nrows)}
	switch s.Kind {
	case KindAnySecondi:
		// Specialized kernel: take the first frontier in-neighbor and stop.
		exec.ForBlocked(int(a.nrows), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if !mask.Allow(Index(i)) {
					continue
				}
				cols, _ := a.Row(Index(i))
				for _, k := range cols {
					if qb.present.Get(k) {
						out.dense[i] = T(k)
						out.present.SetAtomic(Index(i))
						break
					}
				}
			}
		})
		return out
	case KindPlusFirst:
		// Specialized kernel: sum the present q values along the row.
		exec.ForBlocked(int(a.nrows), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if !mask.Allow(Index(i)) {
					continue
				}
				cols, _ := a.Row(Index(i))
				var acc T
				hit := false
				for _, k := range cols {
					if qb.present.Get(k) {
						acc += qb.dense[k]
						hit = true
					}
				}
				if hit {
					out.dense[i] = acc
					out.present.SetAtomic(Index(i))
				}
			}
		})
		return out
	}
	// Generic operator-pointer path.
	exec.ForBlocked(int(a.nrows), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !mask.Allow(Index(i)) {
				continue
			}
			cols, ws := a.Row(Index(i))
			acc := s.Monoid.Identity
			hit := false
			for t, k := range cols {
				if !qb.present.Get(k) {
					continue
				}
				wt := int32(0)
				if ws != nil {
					wt = ws[t]
				}
				x := s.Mult(qb.dense[k], wt, k)
				if hit {
					acc = s.Monoid.Op(acc, x)
				} else {
					acc = x
					hit = true
				}
				if s.Monoid.Any {
					break
				}
				if s.Monoid.Terminal != nil && acc == *s.Monoid.Terminal {
					break
				}
			}
			if hit {
				out.dense[i] = acc
				out.present.SetAtomic(Index(i))
			}
		}
	})
	return out
}

// MxVFullInto computes w = A * q where q is a full vector and every output is
// produced (no mask, no sparsity): the SpMV at the heart of PageRank and
// FastSV. Built-in semirings run specialized loops. It writes into the
// caller's full vector out (length a.nrows): every output position is
// overwritten, so round loops reuse one scratch vector per run instead of
// materializing a fresh result each iteration.
func MxVFullInto[T Number](exec *par.Machine, a *Matrix, q *Vector[T], s Semiring[T], out *Vector[T], workers int) {
	checkVector("MxVFullInto input q", q)
	checkMatrix("MxVFullInto input A", a)
	if out.format == Sparse || Index(len(out.dense)) != a.nrows {
		panic(fmt.Sprintf("grb: MxVFullInto output must be a full/bitmap vector of length %d", a.nrows))
	}
	dense := q.Dense()
	res := out.Dense()
	switch s.Kind {
	case KindPlusFirst:
		exec.ForBlocked(int(a.nrows), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cols, _ := a.Row(Index(i))
				var acc T
				for _, k := range cols {
					acc += dense[k]
				}
				res[i] = acc
			}
		})
		return
	case KindMinFirst:
		exec.ForBlocked(int(a.nrows), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cols, _ := a.Row(Index(i))
				acc := s.Monoid.Identity
				for _, k := range cols {
					if dense[k] < acc {
						acc = dense[k]
					}
				}
				res[i] = acc
			}
		})
		return
	}
	exec.ForBlocked(int(a.nrows), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, ws := a.Row(Index(i))
			acc := s.Monoid.Identity
			for t, k := range cols {
				wt := int32(0)
				if ws != nil {
					wt = ws[t]
				}
				acc = s.Monoid.Op(acc, s.Mult(dense[k], wt, k))
			}
			res[i] = acc
		}
	})
}

// ScatterMin performs dst[idx[t]] = min(dst[idx[t]], val[t]) over full int64
// vectors. The GraphBLAS C API leaves duplicate-index assignment undefined
// (§V-C: "the matrix assignment with the MIN operator as the accumulator
// does not take the minimum of multiple entries"), so LAGraph's FastSV ships
// its own kernel for this — as does this package.
func ScatterMin(dst *Vector[int64], idx, val []int64) {
	checkVector("ScatterMin dst", dst)
	checkLengths("ScatterMin operands", len(idx), len(val))
	d := dst.Dense()
	for t, i := range idx {
		if val[t] < d[i] {
			d[i] = val[t]
		}
	}
}

// MxMPlusPairReduce computes sum(C) where C<L> = L * U' over the plus_pair
// semiring: C[i][j] (for stored L[i][j]) is |row_i(L) ∩ row_j(U)|, the
// LAGraph triangle count. Faithful to §V-F, the whole value matrix is first
// materialized, then reduced and discarded — "It would be much faster to
// skip construction of the matrix and simply sum up its entries as they are
// computed", an unfused cost this reproduction keeps.
func MxMPlusPairReduce(exec *par.Machine, l, u *Matrix, workers int) int64 {
	checkMatrix("MxMPlusPairReduce input L", l)
	checkMatrix("MxMPlusPairReduce input U", u)
	// Materialize C's values row by row (structure equals L's).
	values := make([]int64, l.NVals())
	exec.ForDynamic(int(l.nrows), 64, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			li, _ := l.Row(Index(i))
			base := l.rowPtr[i]
			for t, j := range li {
				uj, _ := u.Row(j)
				values[base+Index(t)] = intersectSorted(li, uj)
			}
		}
	})
	// Reduce to scalar.
	var total int64
	for _, v := range values {
		total += v
	}
	return total
}

// intersectSorted counts common elements of two sorted index lists.
func intersectSorted(x, y []Index) int64 {
	var count int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}
