package grb_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/grb"
	"gapbench/internal/par"
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

// TestTrilTriuMatchesFilter compares Tril and Triu entry for entry against a
// brute-force filter of every stored entry, on seeded random matrices with
// empty rows, self loops (the diagonal k = 0 keeps or drops), weighted and
// unweighted, for k from −2 to 2 on machines 1 and 4 wide.
func TestTrilTriuMatchesFilter(t *testing.T) {
	machines := []*par.Machine{par.NewMachine(1), par.NewMachine(4)}
	defer func() {
		for _, m := range machines {
			m.Close()
		}
	}()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1, 2, 9, 64, 300, 5000}[seed-1]
		weighted := seed%2 == 0
		// About a third of the rows stay empty; the rest get up to 8 entries.
		var edges []graph.WEdge
		for u := 0; u < n; u++ {
			if rng.Intn(3) == 0 {
				continue
			}
			for e := rng.Intn(9); e > 0; e-- {
				edges = append(edges, graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(50))})
			}
		}
		opt := graph.BuildOptions{NumNodes: int32(n), Directed: true, KeepSelfLoops: true}
		var g *graph.Graph
		var err error
		if weighted {
			g, err = graph.BuildWeighted(edges, opt)
		} else {
			plain := make([]graph.Edge, len(edges))
			for i, e := range edges {
				plain[i] = graph.Edge{U: e.U, V: e.V}
			}
			g, err = graph.Build(plain, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		a := grb.FromGraph(g, false, weighted)
		for k := grb.Index(-2); k <= 2; k++ {
			for _, exec := range machines {
				name := fmt.Sprintf("n=%d weighted=%v k=%d width=%d", n, weighted, k, exec.Size())
				requireBand(t, name+" tril", a, a.Tril(exec, k), func(r, c grb.Index) bool { return c <= r+k })
				requireBand(t, name+" triu", a, a.Triu(exec, k), func(r, c grb.Index) bool { return c >= r+k })
			}
		}
	}
}

// requireBand checks that got holds exactly the entries of a that keep
// accepts, row by row, in order, with their weights.
func requireBand(t *testing.T, name string, a, got *grb.Matrix, keep func(r, c grb.Index) bool) {
	t.Helper()
	if got.NRows() != a.NRows() {
		t.Fatalf("%s: %d rows, want %d", name, got.NRows(), a.NRows())
	}
	var nvals grb.Index
	for r := grb.Index(0); r < a.NRows(); r++ {
		cols, ws := a.Row(r)
		var wantCols []grb.Index
		var wantWs []int32
		for i, c := range cols {
			if keep(r, c) {
				wantCols = append(wantCols, c)
				if ws != nil {
					wantWs = append(wantWs, ws[i])
				}
			}
		}
		gotCols, gotWs := got.Row(r)
		if len(gotCols) != len(wantCols) {
			t.Fatalf("%s: row %d holds %v, want %v", name, r, gotCols, wantCols)
		}
		if (ws == nil) != (gotWs == nil) {
			t.Fatalf("%s: row %d weights %v, input weights %v", name, r, gotWs, ws)
		}
		for i := range wantCols {
			if gotCols[i] != wantCols[i] || (ws != nil && gotWs[i] != wantWs[i]) {
				t.Fatalf("%s: row %d holds %v %v, want %v %v", name, r, gotCols, gotWs, wantCols, wantWs)
			}
		}
		nvals += grb.Index(len(wantCols))
	}
	if got.NVals() != nvals {
		t.Fatalf("%s: %d entries, want %d", name, got.NVals(), nvals)
	}
}
