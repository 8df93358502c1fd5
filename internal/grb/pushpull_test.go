package grb

import (
	"math"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// pushPullMatrices builds the canonical 4-vertex test graph (0->1, 1->2,
// 2->0, 2->3) as (A, A').
func pushPullMatrices(t *testing.T) (*Matrix, *Matrix) {
	t.Helper()
	g, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3}, {U: 2, V: 0, W: 1}, {U: 2, V: 3, W: 9},
	}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return FromGraph(g, false, false), FromGraph(g, true, false)
}

func sameVector(t *testing.T, label string, a, b *Vector[int64]) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("%s: sizes %d vs %d", label, a.Size(), b.Size())
	}
	for i := Index(0); i < a.Size(); i++ {
		av, aok := a.Extract(i)
		bv, bok := b.Extract(i)
		if aok != bok || (aok && av != bv) {
			t.Fatalf("%s: index %d: (%v,%v) vs (%v,%v)", label, i, av, aok, bv, bok)
		}
	}
}

// TestPushPullVxMDirectionsAgree runs the same masked product pinned to each
// direction and freed, and asserts all three agree with the plain VxM on a
// non-ANY semiring (exact value equality holds there).
func TestPushPullVxMDirectionsAgree(t *testing.T) {
	a, at := pushPullMatrices(t)
	s := MinFirst()
	visited := NewBitset(a.NRows())
	visited.Set(0)
	mask := NewMask(visited, true) // complement: row 0 already settled

	q := NewSparse[int64](a.NRows())
	q.SetElement(0, 7)
	q.SetElement(2, 4)
	want := VxM(par.Default(), q, a, s, mask, 2)

	for _, tc := range []struct {
		name   string
		policy DirPolicy
	}{{"push", DirPush}, {"pull", DirPull}, {"auto", DirAuto}} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewPushPullState(a, tc.policy)
			got := PushPullVxM(par.Default(), q, a, at, s, mask, st, 2)
			sameVector(t, tc.name, want, got)
		})
	}

	// nil state defaults to fresh auto accounting.
	sameVector(t, "nil-state", want, PushPullVxM(par.Default(), q, a, at, s, mask, nil, 2))
}

// TestPushPullVxMAutoFlipsToPull: once the frontier's degree sum exceeds the
// remaining unexplored-edge budget over alpha, the auto policy must gather.
func TestPushPullVxMAutoFlipsToPull(t *testing.T) {
	a, at := pushPullMatrices(t)
	st := NewPushPullState(a, DirAuto)
	st.edgesToCheck = 0 // exhausted budget: any nonzero scout must pull
	st.FloorOff = true  // isolate the alpha test from the survivor floor
	q := NewSparse[int64](a.NRows())
	q.SetElement(2, 4) // out-degree 2: scout > 0/alpha
	got := PushPullVxM(par.Default(), q, a, at, MinFirst(), nil, st, 2)
	sameVector(t, "forced-auto-pull", MxV(par.Default(), at, q, MinFirst(), nil, 2), got)
	if st.edgesToCheck != 0 {
		t.Fatal("pull rounds must not consume the push budget")
	}
}

// TestPushPullVxMFloorKeepsThinFrontierPushing: even with the alpha test
// satisfied, auto must push while the scout degree sum cannot cover the
// pull gather's per-survivor-row floor.
func TestPushPullVxMFloorKeepsThinFrontierPushing(t *testing.T) {
	a, at := pushPullMatrices(t)
	st := NewPushPullState(a, DirAuto)
	st.edgesToCheck = 0 // alpha test passes on any nonzero scout
	q := NewSparse[int64](a.NRows())
	q.SetElement(2, 4)                                                  // scout 2
	got := PushPullVxM(par.Default(), q, a, at, MinFirst(), nil, st, 2) // floor = 4 rows
	sameVector(t, "floor-forced-push", MxV(par.Default(), at, q, MinFirst(), nil, 2), got)
	if st.edgesToCheck == 0 {
		t.Fatal("untouched push budget: the thin frontier pulled instead of pushing")
	}
	if pullFloor(nil, a.NRows()) != a.NRows() {
		t.Fatalf("nil-mask pullFloor = %d, want nrows %d", pullFloor(nil, a.NRows()), a.NRows())
	}
	// Disabling the floor restores the alpha-only dispatch: same operands
	// now gather (the budget stays untouched).
	st.FloorOff = true
	st.edgesToCheck = 0
	if PushPullVxM(par.Default(), q, a, at, MinFirst(), nil, st, 2) == nil {
		t.Fatal("FloorOff dispatch returned nil")
	}
	if st.edgesToCheck != 0 {
		t.Fatal("FloorOff dispatch consumed the push budget: it pushed instead of pulling")
	}
}

func TestFrontierScoutCountsDegrees(t *testing.T) {
	a, _ := pushPullMatrices(t)
	q := NewSparse[int64](a.NRows())
	q.SetElement(1, 1) // deg 1
	q.SetElement(2, 1) // deg 2
	if got := frontierScout(par.Default(), a, q, 2); got != 3 {
		t.Fatalf("sparse scout = %d, want 3", got)
	}
	if got := frontierScout(par.Default(), a, q.ToBitmap(), 2); got != 3 {
		t.Fatalf("bitmap scout = %d, want 3", got)
	}
	full := NewFull[int64](a.NRows(), 1)
	if got := frontierScout(par.Default(), a, full, 2); got != a.NVals() {
		t.Fatalf("full scout = %d, want every edge (%d)", got, a.NVals())
	}
}

func TestMaskSurvivorRows(t *testing.T) {
	const n = Index(70) // spills one word: tail bits past n must not survive ^w
	set := NewBitset(n)
	for _, i := range []Index{0, 1, 64, 69} {
		set.Set(i)
	}

	t.Run("nil mask", func(t *testing.T) {
		if rows, ok := maskSurvivorRows(par.Default(), nil, n, nil, 2); ok || rows != nil {
			t.Fatal("nil mask must report no survivor list")
		}
	})
	t.Run("plain", func(t *testing.T) {
		rows, ok := maskSurvivorRows(par.Default(), NewMask(set, false), n, nil, 2)
		if !ok || len(rows) != 4 {
			t.Fatalf("got %d survivors, want the 4 set rows", len(rows))
		}
		for i, want := range []Index{0, 1, 64, 69} {
			if rows[i] != want {
				t.Fatalf("rows[%d] = %d, want %d", i, rows[i], want)
			}
		}
	})
	t.Run("complement clears tail", func(t *testing.T) {
		rows, ok := maskSurvivorRows(par.Default(), NewMask(set, true), n, nil, 2)
		if !ok || Index(len(rows)) != n-4 {
			t.Fatalf("got %d survivors, want %d", len(rows), n-4)
		}
		for k, r := range rows {
			if r >= n {
				t.Fatalf("survivor %d past n=%d: complement invented a tail row", r, n)
			}
			if set.Get(r) {
				t.Fatalf("survivor %d is masked off", r)
			}
			if k > 0 && rows[k-1] >= r {
				t.Fatal("survivor list must be sorted")
			}
		}
	})
}

// TestMaskSurvivorRowsParallelGather drives the two-pass machine-parallel
// path (above the serial word cutoff) and checks it against the serial
// semantics.
func TestMaskSurvivorRowsParallelGather(t *testing.T) {
	const n = Index(4097*64 + 13)
	set := NewBitset(n)
	for i := Index(0); i < n; i += 2 {
		set.Set(i)
	}
	m := par.NewMachine(4)
	defer m.Close()
	rows, ok := maskSurvivorRows(m, NewMask(set, true), n, nil, 4)
	if !ok {
		t.Fatal("expected a survivor list")
	}
	want := n / 2 // odd indices survive the complement (n is odd: (n-1)/2+... = n/2 rounded down)
	if Index(len(rows)) != want {
		t.Fatalf("got %d survivors, want %d", len(rows), want)
	}
	for k, r := range rows {
		if r != Index(2*k+1) {
			t.Fatalf("rows[%d] = %d, want %d", k, r, 2*k+1)
		}
	}
}

// denseStates returns one fresh accounting per policy given.
func denseStates(a *Matrix, policies ...DirPolicy) []*PushPullState {
	st := make([]*PushPullState, len(policies))
	for r, p := range policies {
		st[r] = NewPushPullState(a, p)
	}
	return st
}

func sameDense(t *testing.T, label string, want, got *DenseMatrix) {
	t.Helper()
	for r := 0; r < want.rows; r++ {
		for c := Index(0); c < want.n; c++ {
			wv, wok := want.Get(r, c)
			gv, gok := got.Get(r, c)
			if wok != gok || (wok && wv != gv) {
				t.Fatalf("%s: row %d col %d: (%v,%v) vs (%v,%v)", label, r, c, wv, wok, gv, gok)
			}
		}
	}
}

// TestDenseMxMDirectionsAgree runs the one batched product with every row
// pinned to push, pinned to pull, freed, mixed, and with no states at all,
// and asserts the products are identical, floats included: on the 4-vertex
// graph (the serial scatter and the serial gather) and on a Kron-13 graph whose
// full frontier exceeds pushSerialCutoff and pullSerialRows (the per-worker
// partials and the machine-parallel gather).
func TestDenseMxMDirectionsAgree(t *testing.T) {
	small, smallT := pushPullMatrices(t)
	kron, err := generate.ByName("Kron", 13, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, bigT := FromGraph(kron, false, false), FromGraph(kron, true, false)
	if big.NVals() <= 2*pushSerialCutoff || big.NRows() <= 2*pullSerialRows {
		t.Fatalf("Kron-13 (%d rows, %d entries) no longer reaches the parallel paths", big.NRows(), big.NVals())
	}

	for _, g := range []struct {
		name  string
		a, at *Matrix
	}{{"small", small, smallT}, {"kron", big, bigT}} {
		t.Run(g.name, func(t *testing.T) {
			n := g.a.NRows()
			f := NewDenseMatrix(2, n)
			visited := []*Bitset{NewBitset(n), NewBitset(n)}
			for c := Index(0); c < n; c++ {
				f.Set(int(c&1), c, 0.1*float64(c+1)) // inexact floats: order of addition shows
				if c%5 == 0 {
					visited[c&1].Set(c)
				}
			}
			rowMask := func(r int) *Mask { return NewMask(visited[r], true) }
			want := NewDenseMatrix(2, n)
			DenseMxM(par.Default(), want, f, g.a, g.at, rowMask, denseStates(g.a, DirPush, DirPush), 2)
			if want.pres[0].Count()+want.pres[1].Count() == 0 {
				t.Fatal("reference product is empty")
			}
			for _, tc := range []struct {
				name string
				st   []*PushPullState
			}{
				{"nil states (push)", nil},
				{"pinned push", denseStates(g.a, DirPush, DirPush)},
				{"pinned pull", denseStates(g.a, DirPull, DirPull)},
				{"auto", denseStates(g.a, DirAuto, DirAuto)},
				{"mixed", denseStates(g.a, DirPull, DirPush)},
			} {
				t.Run(tc.name, func(t *testing.T) {
					got := NewDenseMatrix(2, n)
					DenseMxM(par.Default(), got, f, g.a, g.at, rowMask, tc.st, 2)
					sameDense(t, tc.name, want, got)
				})
			}
		})
	}
}

// TestDenseMxMRecycledOutputHidesStaleValues poisons a recycled output's
// values and leaves stale presence behind: nothing of either may leak past
// the product's own presence, in any direction.
func TestDenseMxMRecycledOutputHidesStaleValues(t *testing.T) {
	a, at := pushPullMatrices(t)
	n := a.NRows()
	f := NewDenseMatrix(2, n)
	f.Set(0, 2, 1.5)
	f.Set(1, 0, 2.0)
	f.Set(1, 1, 3.0)
	noMask := func(int) *Mask { return nil }
	for _, policy := range []DirPolicy{DirPush, DirPull} {
		want := NewDenseMatrix(2, n)
		DenseMxM(par.Default(), want, f, a, at, noMask, denseStates(a, policy, policy), 2)
		got := NewDenseMatrix(2, n)
		for r := 0; r < 2; r++ {
			for c := Index(0); c < n; c++ {
				got.Set(r, c, math.NaN()) // a previous product's entries
			}
		}
		DenseMxM(par.Default(), got, f, a, at, noMask, denseStates(a, policy, policy), 2)
		sameDense(t, "recycled", want, got)
		gotN, wantN := got.pres[0].Count()+got.pres[1].Count(), want.pres[0].Count()+want.pres[1].Count()
		if gotN != wantN || wantN != 4 {
			t.Fatalf("policy %v: recycled product has %d entries, fresh %d, want 4", policy, gotN, wantN)
		}
	}
}

// TestDenseMxMFloorKeepsWebShapedRowPushing is PushPullVxM's Web regression
// for the batched op: late in a crawl a few hubs pass the alpha test on
// degree sums alone while nearly every vertex is still an unvisited survivor
// whose in-edges a pull would probe fruitlessly. The row must push; with the
// floor off the same operands gather.
func TestDenseMxMFloorKeepsWebShapedRowPushing(t *testing.T) {
	const n = 8192 // 128 mask words: the hub's degree clears the word-count gate
	var edges []graph.Edge
	for v := graph.NodeID(1); v <= 200; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v}) // the hub
	}
	for v := graph.NodeID(201); v < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: v - 1}) // the unexplored bulk
	}
	g, err := graph.Build(edges, graph.BuildOptions{Directed: true, NumNodes: n})
	if err != nil {
		t.Fatal(err)
	}
	a, at := FromGraph(g, false, false), FromGraph(g, true, false)
	f := NewDenseMatrix(1, n)
	f.Set(0, 0, 1)
	visited := NewBitset(n)
	visited.Set(0)
	rowMask := func(int) *Mask { return NewMask(visited, true) }

	want := NewDenseMatrix(1, n)
	DenseMxM(par.Default(), want, f, a, at, rowMask, nil, 2)
	for _, tc := range []struct {
		name     string
		floorOff bool
		pushed   bool
	}{{"floor on pushes", false, true}, {"floor off pulls", true, false}} {
		t.Run(tc.name, func(t *testing.T) {
			st := denseStates(a, DirAuto)
			st[0].edgesToCheck = 0 // alpha passes on any nonzero scout
			st[0].FloorOff = tc.floorOff
			got := NewDenseMatrix(1, n)
			DenseMxM(par.Default(), got, f, a, at, rowMask, st, 2)
			sameDense(t, tc.name, want, got)
			if pushed := st[0].edgesToCheck != 0; pushed != tc.pushed {
				t.Fatalf("pushed = %v, want %v (scout 200, %d survivors)", pushed, tc.pushed, n-1)
			}
		})
	}
}

// TestPushPullCancelTerminates is the cancel-liveness contract: the pull
// gather and its survivor scan poll the machine token at chunk boundaries, so
// an already-cancelled machine returns promptly.
func TestPushPullCancelTerminates(t *testing.T) {
	if grbcheckEnabled {
		t.Skip("partial cancelled products legitimately fail the sanitizer's equivalence recheck")
	}
	a, at := pushPullMatrices(t)
	m := par.NewMachine(2)
	defer m.Close()
	tok := par.NewCancelToken()
	tok.Cancel()
	m.SetCancel(tok)
	defer m.SetCancel(nil)
	q := NewSparse[int64](a.NRows())
	q.SetElement(0, 7)
	st := NewPushPullState(a, DirPull)
	if out := PushPullVxM(m, q, a, at, MinFirst(), nil, st, 2); out == nil {
		t.Fatal("cancelled PushPullVxM returned nil")
	}
}
