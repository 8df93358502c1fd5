package grb_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gapbench/internal/grb"
)

// selectRanges are the [lo, hi) windows TestSelectRangeFullMatchesIterate
// selects with: a bucket in the middle, a bucket at zero, the whole signed
// range, and the empty and inverted windows.
type selectRange[T grb.Number] struct{ lo, hi T }

// TestSelectRangeFullMatchesIterate runs SelectRange on a Full vector and on
// a Bitmap view of the same values, which takes the Iterate arm, and
// requires the same indices, values and order. Values sit on the window's
// edges (lo−1, lo, hi−1, hi), beside them, and at the type's extremes
// (MaxInt32/MaxInt64, ±Inf and NaN for float64), over every length 0–17 —
// each split of a block of eight and its tail — and 1000.
func TestSelectRangeFullMatchesIterate(t *testing.T) {
	ints32 := []selectRange[int32]{{32, 48}, {0, 16}, {math.MinInt32, math.MaxInt32}, {7, 7}, {9, 3}}
	checkSelectRange(t, "int32", ints32, func(r selectRange[int32]) []int32 {
		return []int32{r.lo - 1, r.lo, r.lo + 1, r.hi - 1, r.hi, r.hi + 1, 0, math.MaxInt32, math.MinInt32}
	})
	ints64 := []selectRange[int64]{{32, 48}, {0, 16}, {math.MinInt64, math.MaxInt64}, {-5, 1 << 40}, {7, 7}, {9, 3}}
	checkSelectRange(t, "int64", ints64, func(r selectRange[int64]) []int64 {
		return []int64{r.lo - 1, r.lo, r.lo + 1, r.hi - 1, r.hi, r.hi + 1, 0, math.MaxInt64, math.MinInt64}
	})
	inf := math.Inf(1)
	floats := []selectRange[float64]{{32, 48}, {0, 16}, {-inf, inf}, {0.25, 0.5}, {7, 7}, {9, 3}}
	checkSelectRange(t, "float64", floats, func(r selectRange[float64]) []float64 {
		return []float64{r.lo - 1, r.lo, math.Nextafter(r.lo, -inf), r.hi - 1, math.Nextafter(r.hi, -inf), r.hi,
			0, math.MaxFloat64, inf, -inf, math.NaN()}
	})
}

func checkSelectRange[T grb.Number](t *testing.T, typ string, ranges []selectRange[T], pool func(selectRange[T]) []T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	lengths := []int{1000}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, r := range ranges {
		values := pool(r)
		for _, n := range lengths {
			// A few fills per length: all-miss blocks, all-hit blocks and mixes.
			for fill := 0; fill < 4; fill++ {
				full := grb.NewFull[T](int64(n), 0)
				d := full.Dense()
				for i := range d {
					d[i] = values[rng.Intn(len(values))]
				}
				name := fmt.Sprintf("%s [%v, %v) n=%d fill=%d", typ, r.lo, r.hi, n, fill)
				got := entries(grb.SelectRange(full, r.lo, r.hi))
				want := entries(grb.SelectRange(full.ToBitmap(), r.lo, r.hi))
				if len(got) != len(want) {
					t.Fatalf("%s: Full arm selected %d entries, Iterate arm %d", name, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s: entry %d is %v on the Full arm, %v on the Iterate arm", name, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// selected is one entry of a SelectRange output.
type selected[T grb.Number] struct {
	i grb.Index
	x T
}

func entries[T grb.Number](v *grb.Vector[T]) []selected[T] {
	var out []selected[T]
	v.Iterate(func(i grb.Index, x T) { out = append(out, selected[T]{i, x}) })
	return out
}
