package grb

import (
	"testing"

	"gapbench/internal/par"
)

// TestGrbcheckCorruptedDispatch mirrors the corrupted-vector tests for the
// direction dispatcher: a dispatch whose two directions compute different
// products must be reported, not silently returned.
func TestGrbcheckCorruptedDispatch(t *testing.T) {
	requireArmed(t)
	t.Run("wrong transpose changes structure", func(t *testing.T) {
		a := testMatrix(t)
		// Corrupt dispatch: pass A itself as "A transpose". The graph is
		// asymmetric (0->1 without 1->0), so the pull recomputation under the
		// small-n equivalence gate reaches different output rows.
		q := NewSparse[int64](a.NRows())
		q.SetElement(0, 7)
		st := NewPushPullState(a, DirPush)
		mustPanic(t, func() { PushPullVxM(par.Default(), q, a, a, MinFirst(), nil, st) },
			"PushPullVxM", "direction-structure-equivalence")
	})

	t.Run("duplicated transpose entry changes values", func(t *testing.T) {
		// A: row 0 -> {1, 2}. True A': 1 -> {0}, 2 -> {0}. The corrupted A'
		// duplicates row 1's entry, so a plus_first pull sums q[0] twice —
		// same output structure, different value.
		a := &Matrix{nrows: 3, ncols: 3, rowPtr: []Index{0, 2, 2, 2}, colInd: []Index{1, 2}}
		atBad := &Matrix{nrows: 3, ncols: 3, rowPtr: []Index{0, 0, 2, 3}, colInd: []Index{0, 0, 0}}
		q := NewSparse[float64](3)
		q.SetElement(0, 5)
		st := NewPushPullState(a, DirPush)
		mustPanic(t, func() { PushPullVxM(par.Default(), q, a, atBad, PlusFirst(), nil, st) },
			"PushPullVxM", "direction-value-equivalence")
	})

	t.Run("clean dispatch passes", func(t *testing.T) {
		a, at := pushPullMatrices(t)
		q := NewSparse[int64](a.NRows())
		q.SetElement(0, 7)
		for _, policy := range []DirPolicy{DirPush, DirPull, DirAuto} {
			st := NewPushPullState(a, policy)
			PushPullVxM(par.Default(), q, a, at, MinFirst(), nil, st)
		}
	})
}

// TestDirectionEquivalenceChecker unit-tests the checker on hand-corrupted
// product pairs the dispatch code cannot produce.
func TestDirectionEquivalenceChecker(t *testing.T) {
	requireArmed(t)
	mk := func(entries map[Index]int64) *Vector[int64] {
		v := NewSparse[int64](8)
		for i, x := range entries {
			v.SetElement(i, x)
		}
		return v.ToBitmap()
	}

	t.Run("structure mismatch", func(t *testing.T) {
		mustPanic(t, func() {
			checkDirectionEquivalence("PushPullVxM", MinFirst(), mk(map[Index]int64{1: 5}), mk(map[Index]int64{2: 5}))
		}, "PushPullVxM", "direction-structure-equivalence")
	})
	t.Run("value mismatch", func(t *testing.T) {
		mustPanic(t, func() {
			checkDirectionEquivalence("PushPullVxM", MinFirst(), mk(map[Index]int64{1: 5}), mk(map[Index]int64{1: 6}))
		}, "PushPullVxM", "direction-value-equivalence")
	})
	t.Run("ANY monoid skips values", func(t *testing.T) {
		// Push's CAS winner and pull's row-order first hit legitimately
		// differ under an ANY monoid; only the structure must agree.
		checkDirectionEquivalence("PushPullVxM", AnySecondi(), mk(map[Index]int64{1: 5}), mk(map[Index]int64{1: 6}))
	})
	t.Run("equal products pass", func(t *testing.T) {
		checkDirectionEquivalence("PushPullVxM", MinFirst(), mk(map[Index]int64{1: 5, 3: 2}), mk(map[Index]int64{1: 5, 3: 2}))
	})
}
