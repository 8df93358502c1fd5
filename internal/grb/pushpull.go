package grb

import (
	"fmt"
	"math/bits"

	"gapbench/internal/invariant"
	"gapbench/internal/par"
)

// Direction-aware masked SpMV. push (VxM) scatters the stored frontier
// entries and costs O(edges leaving the frontier); pull (MxV) gathers over
// every row the mask allows, so late in a search it probes only the
// complement-mask survivors. PushPullVxM picks between them per call: it
// estimates the push cost as the *degree sum* of the stored frontier entries
// (Beamer's scout count — one hub can carry more work than thousands of road
// vertices, so vertex counts under-price push on skewed graphs) and compares
// it against the remaining unexplored-edge budget.

// DirPolicy forces or frees PushPullVxM's direction choice.
type DirPolicy int

// Direction policies.
const (
	// DirAuto lets the Beamer-style degree-sum heuristic decide per call.
	DirAuto DirPolicy = iota
	// DirPush always scatters (VxM).
	DirPush
	// DirPull always gathers over the mask survivors.
	DirPull
)

// PushPullState carries the running Beamer accounting across the rounds of
// one search. Create one per traversal with NewPushPullState; each
// PushPullVxM call updates the unexplored-edge budget it consults.
type PushPullState struct {
	// Policy pins the direction (DirPush/DirPull) or frees it (DirAuto).
	Policy DirPolicy
	// Alpha is the push-vs-pull threshold (Beamer's alpha; pull when
	// scout > edgesToCheck/Alpha). Zero disables the pull side.
	Alpha int64
	// FloorOff disables the pull-floor gate (Beamer's beta test, sharpened).
	// Beamer's beta compares the awake count against n/beta because a
	// top-down BFS only estimates how much a bottom-up step will scan; a
	// masked SpMV knows it exactly — the pull gather probes every
	// mask-survivor row at least once, so the survivor count — priced at
	// pullProbeCost in-edge checks per row — bounds pull cost from below.
	// Auto therefore only pulls when the scout degree sum (the exact push
	// cost) exceeds that floor: a frontier that satisfies the alpha test on
	// degree sums alone (a few hubs late in a crawl) still pushes when most
	// rows would probe their in-edges fruitlessly.
	FloorOff bool
	// Recycle lets PushPullVxM reuse output vectors through a two-slot ring
	// held by this state. A returned vector is then invalidated two calls
	// later, so only enable it for round loops (like BFS) where round r's
	// product is dead once round r+1 has consumed it as the frontier.
	Recycle bool

	edges        Index
	edgesToCheck Index
	ring         [2]any  // recycled *Vector[T] outputs (type-erased)
	rowsBuf      []Index // survivor-row scratch for the pull gather
}

// NewPushPullState returns fresh accounting for a traversal over a.
func NewPushPullState(a *Matrix, policy DirPolicy) *PushPullState {
	e := a.NVals()
	return &PushPullState{Policy: policy, Alpha: 15, edges: e, edgesToCheck: e}
}

// pullProbeCost prices a survivor row for the pull-floor gate: the gather's
// first-in-neighbor early exit takes a few in-edge probes to fire on average
// (and never fires for rows not adjacent to the frontier), so a survivor row
// costs several edge-checks, not one. Measured flip rounds separate cleanly:
// profitable pulls carry scout ≥ 5x the survivor count, losing ones 1–3x.
const pullProbeCost = 4

// pullFloor returns the number of rows a pull gather must probe: the
// mask-survivor count (every output row without a mask). One popcount over
// the mask words per dispatch — cheap next to either direction's real work.
func pullFloor(mask *Mask, nrows Index) Index {
	if mask == nil {
		return nrows
	}
	c := mask.present.Count()
	if mask.complement {
		return nrows - c
	}
	return c
}

// choosePull is the one direction rule of the masked products (PushPullVxM
// per call, DenseMxM per root row): given the scout count — the degree sum of
// the stored frontier entries, i.e. the exact push cost — it reports whether
// to gather instead, and charges a push to the unexplored-edge budget.
//
// Auto pulls when the scout passes Beamer's alpha test and the pull floor.
// The floor gate itself is gated: counting survivors costs a popcount over
// nrows/64 mask words, and a pull costs at least that same scan, so a scout
// that cannot beat the word count pushes without counting (the thousands of
// thin late rounds on a high-diameter graph take this exit).
func (st *PushPullState) choosePull(scout Index, mask *Mask, nrows Index) bool {
	pull := st.Policy == DirPull ||
		(st.Policy == DirAuto && st.Alpha > 0 && scout > st.edgesToCheck/Index(st.Alpha) &&
			(st.FloorOff || (scout > nrows>>6 &&
				scout > pullFloor(mask, nrows)*pullProbeCost)))
	if !pull {
		st.edgesToCheck -= scout
	}
	return pull
}

// frontierScout sums the a-row degrees of q's stored entries — the exact
// edge count a push step would traverse. Sparse frontiers reduce over the
// index list; bitmap frontiers reduce word-at-a-time on the machine.
func frontierScout[T Number](exec *par.Machine, a *Matrix, q *Vector[T]) Index {
	switch q.format {
	case Sparse:
		ind := q.ind
		if len(ind) <= 1024 {
			var s Index
			for _, k := range ind {
				s += a.RowDegree(k)
			}
			return s
		}
		return Index(exec.ReduceInt64(len(ind), 0, func(lo, hi int) int64 {
			var s int64
			for _, k := range ind[lo:hi] {
				s += int64(a.RowDegree(k))
			}
			return s
		}))
	case Bitmap:
		words := q.present.Words()
		if len(words) <= 512 {
			var s Index
			q.present.Each(func(k Index) { s += a.RowDegree(k) })
			return s
		}
		return Index(exec.ReduceInt64(len(words), 0, func(lo, hi int) int64 {
			var s int64
			for wi := lo; wi < hi; wi++ {
				w := words[wi]
				base := Index(wi) << 6
				for ; w != 0; w &= w - 1 {
					s += int64(a.RowDegree(base + Index(bits.TrailingZeros64(w))))
				}
			}
			return s
		}))
	default: // Full: every entry present, so a push would touch every edge
		return a.NVals()
	}
}

// PushPullVxM computes w<mask> = q' * A, choosing the direction per call:
// push scatters along a, pull gathers over at (the transpose of a)
// restricted to the mask's surviving rows. Both directions produce the same
// bitmap-format product (asserted in a -tags=check build for small operands —
// see checkDirectionEquivalence), so callers treat this as a drop-in masked
// SpMV with Beamer dispatch.
func PushPullVxM[T Number](exec *par.Machine, q *Vector[T], a, at *Matrix, s Semiring[T], mask *Mask, st *PushPullState) *Vector[T] {
	if st == nil {
		st = NewPushPullState(a, DirAuto)
	}
	checkVector("PushPullVxM input q", q)
	checkMatrix("PushPullVxM input A", a)
	checkMatrix("PushPullVxM input A'", at)
	checkMask("PushPullVxM mask", mask, a.ncols)
	scout := frontierScout(exec, a, q)
	out := recycledOut(st, q, a.ncols)
	pulled := st.choosePull(scout, mask, a.nrows)
	if pulled {
		pull(exec, at, q, s, mask, out, &st.rowsBuf)
	} else {
		push(exec, q, a, s, mask, scout, out, &out.partial)
	}
	checkVector("PushPullVxM output", out)
	if invariant.Armed() && a.nrows <= directionCheckMaxN {
		// The recheck allocates its own output so it never aliases the
		// primary result through the recycling ring.
		pushed, gathered := out, out
		if pulled {
			pushed = VxM(exec, q, a, s, mask)
		} else {
			gathered = MxV(exec, at, q, s, mask)
		}
		// A product the machine's token cut short is partial and will be
		// discarded, not wrong. The token never un-fires, so a test after
		// both products covers both.
		if !exec.Interrupted() {
			checkDirectionEquivalence("PushPullVxM", s, pushed, gathered)
		}
	}
	return out
}

// recycledOut hands back an empty bitmap-format output vector for a dispatch
// round: a fresh allocation normally, or — when st.Recycle is on — a slot
// from the state's two-vector ring that is not the live frontier q. Recycled
// vectors only reset their presence bitset; the dense backing keeps stale
// values, which is sound because every reader checks presence first.
func recycledOut[T Number](st *PushPullState, q *Vector[T], n Index) *Vector[T] {
	if !st.Recycle {
		return newBitmap[T](n)
	}
	for i := range st.ring {
		if v, ok := st.ring[i].(*Vector[T]); ok && v != q && v.n == n {
			v.present.Reset()
			return v
		}
	}
	out := newBitmap[T](n)
	for i := range st.ring {
		if v, ok := st.ring[i].(*Vector[T]); !ok || v != q {
			st.ring[i] = out
			break
		}
	}
	return out
}

// maskSurvivorRows collects the row indices a mask allows, scanning the mask
// bitset word-at-a-time with a two-pass machine-parallel gather (per-tile
// popcounts, serial prefix, parallel fill) so the machine polls the cancel
// token between tiles. A nil mask returns (nil, false): every row survives
// and the caller should run the dense row loop instead.
func maskSurvivorRows(exec *par.Machine, mask *Mask, n Index, buf []Index) ([]Index, bool) {
	if mask == nil {
		return nil, false
	}
	words := mask.present.Words()
	// maskWord returns the survivor bits of word wi, honoring complement and
	// clearing the tail bits past n so ^w cannot invent rows.
	maskWord := func(wi int) uint64 {
		w := words[wi]
		if mask.complement {
			w = ^w
		}
		if valid := n - Index(wi)<<6; valid < 64 {
			w &= (1 << uint(valid)) - 1
		}
		return w
	}
	const tileWords = 2048
	if len(words) <= 4096 {
		var cnt int
		for wi := range words {
			cnt += bits.OnesCount64(maskWord(wi))
		}
		rows := buf[:0]
		if cap(rows) < cnt {
			rows = make([]Index, 0, cnt)
		}
		for wi := range words {
			w := maskWord(wi)
			base := Index(wi) << 6
			for ; w != 0; w &= w - 1 {
				rows = append(rows, base+Index(bits.TrailingZeros64(w)))
			}
		}
		return rows, true
	}
	tiles := (len(words) + tileWords - 1) / tileWords
	offsets := make([]int64, tiles+1)
	exec.ForDynamic(tiles, 1, 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			var cnt int64
			for wi := t * tileWords; wi < min((t+1)*tileWords, len(words)); wi++ {
				cnt += int64(bits.OnesCount64(maskWord(wi)))
			}
			offsets[t+1] = cnt
		}
	})
	for t := 0; t < tiles; t++ {
		offsets[t+1] += offsets[t]
	}
	rows := buf[:0]
	if cap(rows) < int(offsets[tiles]) {
		rows = make([]Index, offsets[tiles])
	} else {
		rows = rows[:offsets[tiles]]
	}
	exec.ForDynamic(tiles, 1, 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			pos := offsets[t]
			for wi := t * tileWords; wi < min((t+1)*tileWords, len(words)); wi++ {
				w := maskWord(wi)
				base := Index(wi) << 6
				for ; w != 0; w &= w - 1 {
					rows[pos] = base + Index(bits.TrailingZeros64(w))
					pos++
				}
			}
		}
	})
	return rows, true
}

// directionCheckMaxN gates the O(n + edges) recomputation behind the
// direction-equivalence assertion to small operands, so the sanitizer tier
// stays fast while still exercising every dispatch site.
const directionCheckMaxN = 1 << 12

// checkDirectionEquivalence asserts a push product and a pull product of the
// same operands agree:
//
//	direction-structure-equivalence  identical present structure
//	direction-value-equivalence      identical stored values (skipped for ANY
//	                                 monoids, which legitimately keep
//	                                 whichever witness arrived first — push's
//	                                 CAS winner vs pull's row-order hit)
func checkDirectionEquivalence[T Number](op string, s Semiring[T], push, pull *Vector[T]) {
	if push.n != pull.n {
		checkFail(op, "direction-structure-equivalence",
			fmt.Sprintf("push product has size %d, pull product %d", push.n, pull.n))
	}
	pw, lw := push.present.Words(), pull.present.Words()
	for wi := range pw {
		if pw[wi] != lw[wi] {
			diff := pw[wi] ^ lw[wi]
			i := Index(wi)<<6 + Index(bits.TrailingZeros64(diff))
			checkFail(op, "direction-structure-equivalence",
				fmt.Sprintf("push and pull disagree on the presence of index %d", i))
		}
	}
	if s.Monoid.Any {
		return
	}
	for i := Index(0); i < push.n; i++ {
		if push.present.Get(i) && push.dense[i] != pull.dense[i] {
			checkFail(op, "direction-value-equivalence",
				fmt.Sprintf("index %d: push computed %v, pull computed %v", i, push.dense[i], pull.dense[i]))
		}
	}
}
