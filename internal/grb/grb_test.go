package grb_test

import (
	"testing"
	"testing/quick"

	"gapbench/internal/graph"
	"gapbench/internal/grb"
	"gapbench/internal/par"
)

func testMatrix(t *testing.T) *grb.Matrix {
	t.Helper()
	// Directed triangle plus a tail: 0->1, 1->2, 2->0, 2->3.
	g, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3}, {U: 2, V: 0, W: 1}, {U: 2, V: 3, W: 9},
	}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return grb.FromGraph(g, false, true)
}

func TestBitsetBasics(t *testing.T) {
	b := grb.NewBitset(70)
	b.Set(0)
	b.Set(69)
	if !b.Get(0) || !b.Get(69) || b.Get(1) {
		t.Fatal("Set/Get wrong")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d", b.Count())
	}
	b.Clear(0)
	if b.Get(0) || b.Count() != 1 {
		t.Fatal("Clear wrong")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset wrong")
	}
}

func TestMaskSemantics(t *testing.T) {
	present := grb.NewBitset(4)
	present.Set(1)
	m := grb.NewMask(present, false)
	if m.Allow(0) || !m.Allow(1) {
		t.Fatal("plain mask wrong")
	}
	c := grb.NewMask(present, true)
	if !c.Allow(0) || c.Allow(1) {
		t.Fatal("complement mask wrong")
	}
	var nilMask *grb.Mask
	if !nilMask.Allow(3) {
		t.Fatal("nil mask must allow everything")
	}
}

func TestVectorFormats(t *testing.T) {
	v := grb.NewSparse[int64](10)
	v.SetElement(7, 70)
	v.SetElement(2, 20)
	v.SetElement(7, 71) // overwrite
	if v.NVals() != 2 {
		t.Fatalf("NVals = %d", v.NVals())
	}
	if x, ok := v.Extract(7); !ok || x != 71 {
		t.Fatalf("Extract(7) = %v,%v", x, ok)
	}
	if _, ok := v.Extract(3); ok {
		t.Fatal("Extract(3) found a value")
	}

	b := v.ToBitmap()
	if b.NVals() != 2 {
		t.Fatalf("bitmap NVals = %d", b.NVals())
	}
	if x, ok := b.Extract(2); !ok || x != 20 {
		t.Fatalf("bitmap Extract(2) = %v,%v", x, ok)
	}
	s := b.ToSparse()
	if s.NVals() != 2 {
		t.Fatalf("sparse NVals = %d", s.NVals())
	}
	var got []grb.Index
	s.Iterate(func(i grb.Index, x int64) { got = append(got, i) })
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("iterate order = %v, want [2 7]", got)
	}

	full := grb.NewFull[int64](4, 9)
	if full.NVals() != 4 {
		t.Fatalf("full NVals = %d", full.NVals())
	}
	fs := full.ToSparse()
	if fs.NVals() != 4 {
		t.Fatalf("full->sparse NVals = %d", fs.NVals())
	}
}

func TestVectorDensePanicsOnSparse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dense() on sparse vector did not panic")
		}
	}()
	grb.NewSparse[int64](3).Dense()
}

func TestMatrixFromGraph(t *testing.T) {
	a := testMatrix(t)
	if a.NRows() != 4 || a.NVals() != 4 {
		t.Fatalf("%d rows, nvals %d", a.NRows(), a.NVals())
	}
	cols, ws := a.Row(2)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 3 {
		t.Fatalf("row 2 = %v", cols)
	}
	if ws[0] != 1 || ws[1] != 9 {
		t.Fatalf("row 2 weights = %v", ws)
	}
	if a.RowDegree(3) != 0 {
		t.Fatal("sink row has entries")
	}
}

func TestTrilTriu(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, graph.BuildOptions{Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	a := grb.FromGraph(g, false, false)
	l := a.Tril(-1)
	u := a.Triu(1)
	if l.NVals() != 3 || u.NVals() != 3 {
		t.Fatalf("L nvals=%d U nvals=%d, want 3 each", l.NVals(), u.NVals())
	}
	for r := grb.Index(0); r < 3; r++ {
		lc, _ := l.Row(r)
		for _, c := range lc {
			if c >= r {
				t.Fatalf("L row %d has entry %d above diagonal", r, c)
			}
		}
		uc, _ := u.Row(r)
		for _, c := range uc {
			if c <= r {
				t.Fatalf("U row %d has entry %d below diagonal", r, c)
			}
		}
	}
}

func TestVxMMinPlus(t *testing.T) {
	a := testMatrix(t)
	q := grb.NewSparse[int32](4)
	q.SetElement(0, 0) // dist[0] = 0
	out := grb.VxM(par.Default(), q, a, grb.MinPlus(), nil, 2)
	if x, ok := out.Extract(1); !ok || x != 5 {
		t.Fatalf("relaxed dist[1] = %v,%v want 5", x, ok)
	}
	if _, ok := out.Extract(3); ok {
		t.Fatal("vertex 3 relaxed from 0 in one hop")
	}
}

func TestVxMMasked(t *testing.T) {
	a := testMatrix(t)
	q := grb.NewSparse[int64](4)
	q.SetElement(2, 2)
	visited := grb.NewBitset(4)
	visited.Set(0) // 0 already visited: masked out
	out := grb.VxM(par.Default(), q, a, grb.AnySecondi(), grb.NewMask(visited, true), 2)
	if _, ok := out.Extract(0); ok {
		t.Fatal("masked-out position written")
	}
	if p, ok := out.Extract(3); !ok || p != 2 {
		t.Fatalf("parent of 3 = %v,%v want 2", p, ok)
	}
}

// testMatrixTranspose returns the transpose (in-CSR) of testMatrix's graph.
func testMatrixTranspose(t *testing.T) *grb.Matrix {
	t.Helper()
	g, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3}, {U: 2, V: 0, W: 1}, {U: 2, V: 3, W: 9},
	}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return grb.FromGraph(g, true, false)
}

func TestMxVPull(t *testing.T) {
	at := testMatrixTranspose(t)
	// Frontier = {2}; pulling over AT finds vertices whose in-neighbors
	// include 2: rows of AT holding column 2 -> vertices 0 and 3.
	q := grb.NewSparse[int64](4)
	q.SetElement(2, 2)
	out := grb.MxV(par.Default(), at, q, grb.AnySecondi(), nil, 2)
	if p, ok := out.Extract(0); !ok || p != 2 {
		t.Fatalf("parent of 0 = %v,%v want 2", p, ok)
	}
	if p, ok := out.Extract(3); !ok || p != 2 {
		t.Fatalf("parent of 3 = %v,%v want 2", p, ok)
	}
	if _, ok := out.Extract(1); ok {
		t.Fatal("vertex 1 has no in-neighbor 2 but got a parent")
	}
}

func TestMxVFullPlusFirst(t *testing.T) {
	at := testMatrixTranspose(t)
	q := grb.NewFull[float64](4, 1)
	out := grb.NewFull[float64](4, 0)
	grb.MxVFullInto(par.Default(), at, q, grb.PlusFirst(), out, 2)
	// In-degrees: v0<-2, v1<-0, v2<-1, v3<-2 -> each sums 1 per in-edge.
	want := []float64{1, 1, 1, 1}
	for i, w := range want {
		if out.Dense()[i] != w {
			t.Fatalf("out[%d] = %v, want %v", i, out.Dense()[i], w)
		}
	}
}

func TestScatterMin(t *testing.T) {
	dst := grb.NewFull[int64](4, 100)
	grb.ScatterMin(dst, []int64{1, 1, 2}, []int64{50, 30, 200})
	d := dst.Dense()
	if d[1] != 30 {
		t.Fatalf("dst[1] = %d, want 30 (min of duplicates)", d[1])
	}
	if d[2] != 100 {
		t.Fatalf("dst[2] = %d, want 100 (200 not smaller)", d[2])
	}
}

func TestMxMPlusPairReduceTriangle(t *testing.T) {
	// Undirected triangle: exactly one triangle.
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, graph.BuildOptions{Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	a := grb.FromGraph(g, false, false)
	if got := grb.MxMPlusPairReduce(par.Default(), a.Tril(-1), a.Triu(1), 2); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
}

func TestSelectRange(t *testing.T) {
	v := grb.NewFull[int32](6, 0)
	d := v.Dense()
	copy(d, []int32{5, 10, 15, 20, 25, 30})
	sel := grb.SelectRange(v, 10, 25)
	if sel.NVals() != 3 {
		t.Fatalf("NVals = %d, want 3", sel.NVals())
	}
	var idx []grb.Index
	sel.Iterate(func(i grb.Index, _ int32) { idx = append(idx, i) })
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 3 {
		t.Fatalf("selected = %v", idx)
	}
}

// Property: the monoids of the semirings the kernels run on (min over int64
// for FastSV's hooking, min over int32 for SSSP) are associative and
// commutative with correct identities over random values.
func TestMonoidLaws(t *testing.T) {
	minI64 := grb.MinFirst().Monoid
	minI32 := grb.MinPlus().Monoid
	f := func(a, b, c int32) bool {
		x, y, z := int64(a), int64(b), int64(c)
		if minI64.Op(minI64.Op(x, y), z) != minI64.Op(x, minI64.Op(y, z)) {
			return false
		}
		if minI64.Op(x, y) != minI64.Op(y, x) || minI64.Op(x, minI64.Identity) != x {
			return false
		}
		if minI32.Op(minI32.Op(a, b), c) != minI32.Op(a, minI32.Op(b, c)) {
			return false
		}
		return minI32.Op(a, minI32.Identity) == a && minI32.Op(a, b) == minI32.Op(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sparse<->bitmap conversions preserve contents exactly.
func TestFormatConversionProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		v := grb.NewSparse[int64](256)
		ref := map[grb.Index]int64{}
		for i, p := range pairs {
			v.SetElement(grb.Index(p), int64(i))
			ref[grb.Index(p)] = int64(i)
		}
		round := v.ToBitmap().ToSparse()
		if round.NVals() != grb.Index(len(ref)) {
			return false
		}
		ok := true
		round.Iterate(func(i grb.Index, x int64) {
			if ref[i] != x {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenericSemiringPaths(t *testing.T) {
	// A user-defined semiring (max_second over int64) must run through the
	// generic operator-pointer paths of VxM, MxV and MxVFullInto.
	maxSecond := grb.Semiring[int64]{
		Monoid: grb.Monoid[int64]{Identity: -1, Op: func(x, y int64) int64 {
			if x > y {
				return x
			}
			return y
		}},
		Mult: func(qval int64, w int32, _ grb.Index) int64 { return qval + int64(w) },
	}
	a := testMatrix(t)
	q := grb.NewSparse[int64](4)
	q.SetElement(2, 10)
	push := grb.VxM(par.Default(), q, a, maxSecond, nil, 2)
	// Row 2 holds (0,w=1) and (3,w=9): outputs 11 and 19.
	if x, _ := push.Extract(0); x != 11 {
		t.Fatalf("push[0] = %d, want 11", x)
	}
	if x, _ := push.Extract(3); x != 19 {
		t.Fatalf("push[3] = %d, want 19", x)
	}
	at := testMatrixTranspose(t)
	pull := grb.MxV(par.Default(), at, q, maxSecond, nil, 2)
	if x, ok := pull.Extract(0); !ok || x != 10 { // AT row 0: in-neighbor 2, structural weight... transpose keeps no weights here
		t.Fatalf("pull[0] = %d,%v want 10", x, ok)
	}
	full := grb.NewFull[int64](4, -1)
	grb.MxVFullInto(par.Default(), at, grb.NewFull[int64](4, 5), maxSecond, full, 2)
	if full.Dense()[0] != 5 {
		t.Fatalf("full[0] = %d, want 5", full.Dense()[0])
	}
}

func TestGenericSemiringTerminal(t *testing.T) {
	// A terminal value must stop the row reduction early (observable only
	// through correctness here: the result is the terminal).
	term := int64(99)
	clamp := grb.Semiring[int64]{
		Monoid: grb.Monoid[int64]{Identity: 0, Terminal: &term, Op: func(x, y int64) int64 {
			if x == 99 || y == 99 {
				return 99
			}
			return x + y
		}},
		Mult: func(qval int64, _ int32, _ grb.Index) int64 { return qval },
	}
	at := testMatrixTranspose(t)
	q := grb.NewFull[int64](4, 99)
	out := grb.MxV(par.Default(), at, q, clamp, nil, 1)
	if x, ok := out.Extract(0); !ok || x != 99 {
		t.Fatalf("terminal reduction = %d,%v", x, ok)
	}
}

func TestVectorStructure(t *testing.T) {
	v := grb.NewSparse[int64](10)
	v.SetElement(4, 44)
	st := v.Structure()
	if !st.Get(4) || st.Get(5) {
		t.Fatal("sparse Structure wrong")
	}
	full := grb.NewFull[int64](3, 1)
	if full.Structure().Count() != 3 {
		t.Fatal("full Structure wrong")
	}
	bm := v.ToBitmap()
	if !bm.Structure().Get(4) {
		t.Fatal("bitmap Structure wrong")
	}
	if st.Len() != 10 {
		t.Fatal("Len wrong")
	}
}

func TestAssignMasked(t *testing.T) {
	dst := grb.NewFull[int64](6, 0)
	src := grb.NewSparse[int64](6)
	src.SetElement(1, 11)
	src.SetElement(2, 22)
	allow := grb.NewBitset(6)
	allow.Set(1)
	grb.AssignMasked(dst, src, grb.NewMask(allow, false))
	d := dst.Dense()
	if d[1] != 11 || d[2] != 0 {
		t.Fatalf("masked assign wrong: %v", d)
	}
}

func TestMonoidConstructors(t *testing.T) {
	mf := grb.MinFirst()
	if mf.Mult(42, 9, 7) != 42 {
		t.Fatal("MinFirst mult must return qval")
	}
}

func TestDenseMatrixBasics(t *testing.T) {
	d := grb.NewDenseMatrix(2, 5)
	if d.RowStructure(0).Count() != 0 || d.RowStructure(1).Count() != 0 {
		t.Fatal("fresh dense matrix wrong")
	}
	d.Set(0, 3, 1.5)
	d.Set(1, 0, 2.5)
	if v, ok := d.Get(0, 3); !ok || v != 1.5 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := d.Get(0, 0); ok {
		t.Fatal("absent entry present")
	}
	if d.RowStructure(0).Count() != 1 || d.RowStructure(1).Count() != 1 {
		t.Fatal("counts wrong")
	}
}

func TestDenseMxMMatchesVectorProduct(t *testing.T) {
	a := testMatrix(t)
	// Two frontier rows: {0:1} and {2:3}.
	f := grb.NewDenseMatrix(2, 4)
	f.Set(0, 0, 1)
	f.Set(1, 2, 3)
	at := testMatrixTranspose(t)
	noMask := func(int) *grb.Mask { return nil }
	out := grb.NewDenseMatrix(2, 4)
	grb.DenseMxM(par.Default(), out, f, a, at, noMask, nil, 2)
	// Row 0: vertex 0 -> 1 with value 1.
	if v, ok := out.Get(0, 1); !ok || v != 1 {
		t.Fatalf("out[0][1] = %v,%v", v, ok)
	}
	// Row 1: vertex 2 -> {0, 3} each with value 3.
	for _, c := range []grb.Index{0, 3} {
		if v, ok := out.Get(1, c); !ok || v != 3 {
			t.Fatalf("out[1][%d] = %v,%v", c, v, ok)
		}
	}
	if out.RowStructure(0).Count() != 1 || out.RowStructure(1).Count() != 2 {
		t.Fatal("row counts wrong")
	}
	// Masked: forbid column 3 in row 1.
	allow := grb.NewBitset(4)
	allow.Set(3)
	masked := grb.NewDenseMatrix(2, 4)
	grb.DenseMxM(par.Default(), masked, f, a, at, func(r int) *grb.Mask {
		if r == 1 {
			return grb.NewMask(allow, true) // complement: everything but 3
		}
		return nil
	}, nil, 2)
	if _, ok := masked.Get(1, 3); ok {
		t.Fatal("masked column written")
	}
	if _, ok := masked.Get(1, 0); !ok {
		t.Fatal("allowed column missing")
	}
}

func TestDenseMxMAccumulatesSharedTargets(t *testing.T) {
	// Two sources in one row pointing at a shared target must sum (plus
	// monoid), the sigma-accumulation BC depends on.
	g, err := graph.Build([]graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	a := grb.FromGraph(g, false, false)
	f := grb.NewDenseMatrix(1, 3)
	f.Set(0, 0, 2)
	f.Set(0, 1, 5)
	out := grb.NewDenseMatrix(1, 3)
	grb.DenseMxM(par.Default(), out, f, a, grb.FromGraph(g, true, false), func(int) *grb.Mask { return nil }, nil, 2)
	if v, ok := out.Get(0, 2); !ok || v != 7 {
		t.Fatalf("accumulated = %v,%v want 7", v, ok)
	}
}
