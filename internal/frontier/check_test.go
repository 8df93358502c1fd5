package frontier

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

// mustPanic runs fn and asserts it panics with a frontier sanitizer message
// containing every want substring (the op name and the invariant identifier).
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("operation on corrupted set did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want a sanitizer string", r, r)
		}
		if !strings.HasPrefix(msg, "frontier: grbcheck: ") {
			t.Fatalf("panic %q is not a frontier sanitizer report", msg)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q does not name %q", msg, w)
			}
		}
	}()
	fn()
}

// TestCleanConversionsPass exercises both conversion directions with healthy
// sets: the sanitizer must stay silent.
func TestCleanConversionsPass(t *testing.T) {
	requireArmed(t)
	s := FromList(64, []graph.NodeID{9, 0, 33})
	b := s.ToBitmap(par.Default())
	b.ToList(par.Default())
	// Unsorted push-gather order is legal input for ToBitmap.
	FromList(64, []graph.NodeID{40, 7, 21}).ToBitmap(par.Default())
}

// TestCorruptedSparseCount seeds a sparse set whose count disagrees with its
// list and asserts the conversion reports it.
func TestCorruptedSparseCount(t *testing.T) {
	requireArmed(t)
	s := FromList(32, []graph.NodeID{1, 2, 3})
	s.count = 5 // corrupt: claims members it does not store
	mustPanic(t, func() { s.ToBitmap(par.Default()) },
		"ToBitmap", "conversion-count")
}

// TestCorruptedBitmapCount seeds a bitmap whose count disagrees with its set
// bits.
func TestCorruptedBitmapCount(t *testing.T) {
	requireArmed(t)
	b := NewSet(32, Bitmap)
	b.bits.SetAtomic(1)
	b.count++
	b.bits.SetAtomic(3)
	b.count++
	b.count = 3 // corrupt: one phantom member
	mustPanic(t, func() { b.ToList(par.Default()) },
		"ToList", "conversion-count")
}

// TestDuplicateHidingDetected is the invariant the sorted check exists for:
// a duplicated list entry makes the bitmap one member short, which must not
// silently pass as equal-count conversion.
func TestDuplicateHidingDetected(t *testing.T) {
	requireArmed(t)
	s := FromList(32, []graph.NodeID{2, 2}) // push gathers may be unsorted, but never duplicated
	mustPanic(t, func() { s.ToBitmap(par.Default()) },
		"ToBitmap", "conversion-count")
}

// TestCheckConversionDirect unit-tests the checker itself on hand-corrupted
// pairs that the conversion code paths cannot produce.
func TestCheckConversionDirect(t *testing.T) {
	requireArmed(t)
	bitmap := NewSet(32, Bitmap)
	bitmap.bits.SetAtomic(1)
	bitmap.count++
	bitmap.bits.SetAtomic(3)
	bitmap.count++

	t.Run("membership", func(t *testing.T) {
		out := FromList(32, []graph.NodeID{1, 4}) // 4 is not in the bitmap
		mustPanic(t, func() { checkConversion(par.Default(), "ToList", bitmap, out) },
			"ToList", "conversion-membership")
	})
	t.Run("produced list unsorted", func(t *testing.T) {
		out := FromList(32, []graph.NodeID{3, 1}) // ToList output must be sorted
		mustPanic(t, func() { checkConversion(par.Default(), "ToList", bitmap, out) },
			"ToList", "conversion-sorted")
	})
	t.Run("clean pair passes", func(t *testing.T) {
		checkConversion(par.Default(), "ToList", bitmap, FromList(32, []graph.NodeID{1, 3}))
	})
}
