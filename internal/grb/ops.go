package grb

import (
	"fmt"

	"gapbench/internal/par"
)

// The masked products below are written once per direction. push scatters
// the stored entries of q along A's rows (SpMSpV, cost O(edges leaving q));
// pull gathers each output row that the mask allows against q (SpMV, cost
// O(rows probed)). VxM, VxMInto, PushPullVxM and DenseMxM all reach push, and
// MxV, PushPullVxM and DenseMxM all reach pull, so the per-operation overhead
// §V-A and §V-E blame on GraphBLAS is paid in exactly one place per direction.
// Built-in semirings take specialized arms (SuiteSparse's pre-generated
// kernels); anything else runs the generic operator-pointer arm.

// pushSerialCutoff is the scatter size (in edges) at or below which push runs
// in the calling goroutine: one region launch on an oversubscribed machine
// costs more than scattering this many entries.
const pushSerialCutoff = 16384

// pullSerialRows is the row count at or below which pull runs in the calling
// goroutine: one machine dispatch costs more than the whole gather.
const pullSerialRows = 2048

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
// The result is returned in bitmap format.
func VxM[T Number](exec *par.Machine, q *Vector[T], a *Matrix, s Semiring[T], mask *Mask) *Vector[T] {
	out := newBitmap[T](a.ncols)
	VxMInto(exec, q, a, s, mask, out)
	return out
}

// VxMInto is VxM into a recycled output: out must be a bitmap-format vector of
// a's column count; its old entries are dropped by resetting presence only,
// so a loop of products (delta-stepping's relaxations) allocates one output,
// not one per product.
func VxMInto[T Number](exec *par.Machine, q *Vector[T], a *Matrix, s Semiring[T], mask *Mask, out *Vector[T]) {
	if out.format != Bitmap || out.n != a.ncols {
		panic(fmt.Sprintf("grb: VxMInto output must be a bitmap vector of size %d", a.ncols))
	}
	checkVector("VxM input q", q)
	checkMatrix("VxM input A", a)
	checkMask("VxM mask", mask, a.ncols)
	checkVector("VxM output", out)
	out.present.Reset()
	push(exec, q, a, s, mask, frontierScout(exec, a, q), out, &out.partial)
}

// push is the one scatter: out<mask> = q' * A into a bitmap-format out whose
// presence is clear. Its values may be stale (a recycled output), which is
// sound because every write below is presence-first. scout is the degree sum
// of q's stored entries, the edges the scatter walks. At or below
// pushSerialCutoff it merges straight into out, walking q in its own format;
// above it, workers scatter a static partition of q's entries into
// per-worker partials that merge in worker order. The partials are recycled
// through *scratch, which the caller keeps beside its recycled output. Both
// orders visit q ascending, so ANY keeps the lowest-index witness and PLUS
// adds a column's contributions in the same order either way.
func push[T Number](exec *par.Machine, q *Vector[T], a *Matrix, s Semiring[T], mask *Mask, scout Index, out *Vector[T], scratch *[][]entry[T]) {
	if scout <= pushSerialCutoff {
		q.Iterate(func(k Index, qv T) {
			cols, ws := a.Row(k)
			switch s.Kind {
			case KindAnySecondi:
				vk := T(k)
				for _, j := range cols {
					if mask.Allow(j) && !out.present.Get(j) {
						out.dense[j] = vk
						out.present.Set(j)
					}
				}
			case KindPlusFirst:
				for _, j := range cols {
					if !mask.Allow(j) {
						continue
					}
					if out.present.Get(j) {
						out.dense[j] += qv
					} else {
						out.dense[j] = qv
						out.present.Set(j)
					}
				}
			case KindMinFirst:
				for _, j := range cols {
					if mask.Allow(j) {
						mergeMin(out, j, qv)
					}
				}
			case KindMinPlus:
				for c, j := range cols {
					if mask.Allow(j) {
						mergeMin(out, j, qv+T(ws[c]))
					}
				}
			default:
				for c, j := range cols {
					if !mask.Allow(j) {
						continue
					}
					x := s.Mult(qv, weightAt(ws, c), k)
					if out.present.Get(j) {
						out.dense[j] = s.Monoid.Op(out.dense[j], x)
					} else {
						out.dense[j] = x
						out.present.Set(j)
					}
				}
			}
		})
		return
	}

	qs := q.ToSparse()
	slots := exec.Size()
	if len(*scratch) < slots {
		*scratch = make([][]entry[T], slots)
	}
	partial := (*scratch)[:slots]
	for w := range partial {
		partial[w] = partial[w][:0] // a slot the region skips must merge nothing
	}
	exec.ForWorker(len(qs.ind), slots, func(w, lo, hi int) {
		local := partial[w]
		for t := lo; t < hi; t++ {
			k, qv := qs.ind[t], qs.val[t]
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
				for c, j := range cols {
					if mask.Allow(j) {
						local = append(local, entry[T]{j, qv + T(ws[c])})
					}
				}
			default:
				for c, j := range cols {
					if mask.Allow(j) {
						local = append(local, entry[T]{j, s.Mult(qv, weightAt(ws, c), k)})
					}
				}
			}
		}
		partial[w] = local
	})

	merge := func(combine func(old, x T) T) {
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
		merge(func(old, x T) T { return min(old, x) })
	case KindPlusFirst:
		merge(func(old, x T) T { return old + x })
	default:
		merge(s.Monoid.Op)
	}
}

// mergeMin folds x into position j of out under the MIN monoid.
func mergeMin[T Number](out *Vector[T], j Index, x T) {
	if !out.present.Get(j) {
		out.dense[j] = x
		out.present.Set(j)
	} else if x < out.dense[j] {
		out.dense[j] = x
	}
}

// weightAt returns entry c's weight, or 0 in a structural (unweighted) row.
func weightAt(ws []int32, c int) int32 {
	if ws == nil {
		return 0
	}
	return ws[c]
}

// MxV computes w<mask> = A * q over the semiring: a pull-style product that
// gathers each output row's matrix entries against q,
//
//	w[i] = ⊕_{k : A[i][k] present, q[k] present}  Mult(q[k], A[i][k], k)
//
// The result is returned in bitmap format.
func MxV[T Number](exec *par.Machine, a *Matrix, q *Vector[T], s Semiring[T], mask *Mask) *Vector[T] {
	checkVector("MxV input q", q)
	checkMatrix("MxV input A", a)
	checkMask("MxV mask", mask, a.nrows)
	out := newBitmap[T](a.nrows)
	pull(exec, a, q, s, mask, out, nil)
	return out
}

// pull is the one gather: out<mask> = A * q into a bitmap-format out whose
// presence is clear. q is converted to bitmap format first (timed, as §V-A
// describes). It visits only the rows the mask allows — the complement-mask
// survivors that shrink every BFS round, where a full row loop would rescan
// all n — or every row without a mask. buf, when non-nil, recycles the
// survivor list across calls. At or below pullSerialRows rows it runs in the
// calling goroutine; above it, rows go to the machine in dynamic chunks, so
// the cancel token is polled at chunk boundaries. Both forms run one row
// body, pullRows.
func pull[T Number](exec *par.Machine, a *Matrix, q *Vector[T], s Semiring[T], mask *Mask, out *Vector[T], buf *[]Index) {
	qb := q.ToBitmap()
	var scratch []Index
	if buf != nil {
		scratch = *buf
	}
	rows, masked := maskSurvivorRows(exec, mask, a.nrows, scratch)
	count := len(rows)
	if !masked {
		count = int(a.nrows)
	} else if buf != nil {
		*buf = rows[:0]
	}
	if count <= pullSerialRows {
		pullRows(a, qb, s, rows, 0, count, out, false)
		return
	}
	exec.ForDynamic(count, 64, 0, func(lo, hi int) {
		pullRows(a, qb, s, rows, lo, hi, out, true)
	})
}

// pullRows gathers output rows rows[lo:hi] (rows lo..hi-1 when rows is nil):
// each is the ⊕ of Mult(q[k], A[i][k], k) over the present q entries along
// A's row i. ANY monoids stop at the first contribution, which is what makes
// the pull direction profitable for BFS. concurrent marks presence
// atomically, because parallel chunks share presence words at their edges.
func pullRows[T Number](a *Matrix, qb *Vector[T], s Semiring[T], rows []Index, lo, hi int, out *Vector[T], concurrent bool) {
	for t := lo; t < hi; t++ {
		i := Index(t)
		if rows != nil {
			i = rows[t]
		}
		cols, ws := a.Row(i)
		var acc T
		hit := false
		switch s.Kind {
		case KindAnySecondi:
			for _, k := range cols {
				if qb.present.Get(k) {
					acc, hit = T(k), true
					break
				}
			}
		case KindPlusFirst:
			for _, k := range cols {
				if qb.present.Get(k) {
					acc += qb.dense[k]
					hit = true
				}
			}
		default:
			for c, k := range cols {
				if !qb.present.Get(k) {
					continue
				}
				x := s.Mult(qb.dense[k], weightAt(ws, c), k)
				if hit {
					acc = s.Monoid.Op(acc, x)
				} else {
					acc, hit = x, true
				}
				if s.Monoid.Any || (s.Monoid.Terminal != nil && acc == *s.Monoid.Terminal) {
					break
				}
			}
		}
		if !hit {
			continue
		}
		out.dense[i] = acc
		if concurrent {
			out.present.SetAtomic(i)
		} else {
			out.present.Set(i)
		}
	}
}

// MxVFullInto computes w = A * q where q is a full vector and every output is
// produced (no mask, no sparsity): the SpMV at the heart of PageRank and
// FastSV. Built-in semirings run specialized loops. It writes into the
// caller's full vector out (length a.nrows): every output position is
// overwritten, so round loops reuse one scratch vector per run instead of
// materializing a fresh result each iteration.
func MxVFullInto[T Number](exec *par.Machine, a *Matrix, q *Vector[T], s Semiring[T], out *Vector[T]) {
	checkVector("MxVFullInto input q", q)
	checkMatrix("MxVFullInto input A", a)
	if out.format == Sparse || Index(len(out.dense)) != a.nrows {
		panic(fmt.Sprintf("grb: MxVFullInto output must be a full/bitmap vector of length %d", a.nrows))
	}
	dense := q.Dense()
	res := out.Dense()
	switch s.Kind {
	case KindPlusFirst:
		exec.ForBlocked(int(a.nrows), 0, func(lo, hi int) {
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
		exec.ForBlocked(int(a.nrows), 0, func(lo, hi int) {
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
	exec.ForBlocked(int(a.nrows), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, ws := a.Row(Index(i))
			acc := s.Monoid.Identity
			for t, k := range cols {
				acc = s.Monoid.Op(acc, s.Mult(dense[k], weightAt(ws, t), k))
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
func MxMPlusPairReduce(exec *par.Machine, l, u *Matrix) int64 {
	checkMatrix("MxMPlusPairReduce input L", l)
	checkMatrix("MxMPlusPairReduce input U", u)
	checkRowsSorted("MxMPlusPairReduce input L", l)
	checkRowsSorted("MxMPlusPairReduce input U", u)
	// Materialize C's values row by row (structure equals L's).
	values := make([]int64, l.NVals())
	exec.ForDynamic(int(l.nrows), 64, 0, func(lo, hi int) {
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
