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
	c := b.Clone()
	c.Set(5)
	if b.Get(5) {
		t.Fatal("Clone shares storage")
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
	if a.NRows() != 4 || a.NCols() != 4 || a.NVals() != 4 {
		t.Fatalf("shape %dx%d nvals %d", a.NRows(), a.NCols(), a.NVals())
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
	out := grb.MxVFull(par.Default(), at, q, grb.PlusFirst(), 2)
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

func TestReduceVecAndApply(t *testing.T) {
	v := grb.NewSparse[int64](10)
	v.SetElement(1, 3)
	v.SetElement(5, 4)
	if got := grb.ReduceVec(v, grb.PlusMonoidI64()); got != 7 {
		t.Fatalf("reduce = %d, want 7", got)
	}
	grb.EWiseApply(v, func(_ grb.Index, x int64) int64 { return x * 2 })
	if got := grb.ReduceVec(v, grb.PlusMonoidI64()); got != 14 {
		t.Fatalf("reduce after apply = %d, want 14", got)
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

// Property: the semiring monoids are associative and commutative with
// correct identities over random values.
func TestMonoidLaws(t *testing.T) {
	plus := grb.PlusMonoidI64()
	minI32 := grb.MinMonoidI32()
	f := func(a, b, c int32) bool {
		x, y, z := int64(a), int64(b), int64(c)
		if plus.Op(plus.Op(x, y), z) != plus.Op(x, plus.Op(y, z)) {
			return false
		}
		if plus.Op(x, y) != plus.Op(y, x) || plus.Op(x, plus.Identity) != x {
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

func TestEWiseAddAndMult(t *testing.T) {
	a := grb.NewSparse[int64](8)
	a.SetElement(1, 10)
	a.SetElement(3, 30)
	b := grb.NewSparse[int64](8)
	b.SetElement(3, 3)
	b.SetElement(5, 5)
	add := grb.EWiseAdd(a, b, func(x, y int64) int64 { return x + y })
	if add.NVals() != 3 {
		t.Fatalf("union NVals = %d, want 3", add.NVals())
	}
	if x, _ := add.Extract(3); x != 33 {
		t.Fatalf("add[3] = %d, want 33", x)
	}
	if x, _ := add.Extract(5); x != 5 {
		t.Fatalf("add[5] = %d, want 5", x)
	}
	mult := grb.EWiseMult(a, b, func(x, y int64) int64 { return x * y })
	if mult.NVals() != 1 {
		t.Fatalf("intersection NVals = %d, want 1", mult.NVals())
	}
	if x, _ := mult.Extract(3); x != 90 {
		t.Fatalf("mult[3] = %d, want 90", x)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	a := testMatrix(t)
	at := a.Transpose()
	if at.NVals() != a.NVals() {
		t.Fatalf("transpose nvals %d != %d", at.NVals(), a.NVals())
	}
	// (A')' == A entry for entry.
	back := at.Transpose()
	for r := grb.Index(0); r < a.NRows(); r++ {
		c1, w1 := a.Row(r)
		c2, w2 := back.Row(r)
		if len(c1) != len(c2) {
			t.Fatalf("row %d length changed", r)
		}
		for i := range c1 {
			if c1[i] != c2[i] || w1[i] != w2[i] {
				t.Fatalf("row %d entry %d changed", r, i)
			}
		}
	}
	// A'[v] must list v's in-neighbors.
	cols, _ := at.Row(0)
	if len(cols) != 1 || cols[0] != 2 {
		t.Fatalf("AT row 0 = %v, want [2]", cols)
	}
}

func TestApplyWeightsAndReduce(t *testing.T) {
	a := testMatrix(t)
	doubled := a.ApplyWeights(func(w int32) int32 { return 2 * w })
	_, ws := doubled.Row(0)
	if ws[0] != 10 {
		t.Fatalf("doubled weight = %d, want 10", ws[0])
	}
	sum := a.ReduceMatrixWeights(grb.PlusMonoidI64())
	if sum != 5+3+1+9 {
		t.Fatalf("weight sum = %d, want 18", sum)
	}
	// Structural reduce counts entries.
	structural := grb.FromGraphStructuralForTest(t)
	if got := structural.ReduceMatrixWeights(grb.PlusMonoidI64()); got != 4 {
		t.Fatalf("structural reduce = %d, want 4", got)
	}
}

func TestRowDegreesAndDiag(t *testing.T) {
	a := testMatrix(t)
	deg := a.RowDegrees().Dense()
	want := []int64{1, 1, 2, 0}
	for i, w := range want {
		if deg[i] != w {
			t.Fatalf("degree[%d] = %d, want %d", i, deg[i], w)
		}
	}
	v := grb.NewSparse[int32](4)
	v.SetElement(1, 7)
	v.SetElement(3, 9)
	d := grb.Diag(v)
	if d.NVals() != 2 {
		t.Fatalf("diag nvals = %d", d.NVals())
	}
	cols, ws := d.Row(1)
	if len(cols) != 1 || cols[0] != 1 || ws[0] != 7 {
		t.Fatalf("diag row 1 = %v %v", cols, ws)
	}
	if d.RowDegree(0) != 0 || d.RowDegree(2) != 0 {
		t.Fatal("diag has off-pattern rows")
	}
}

func TestExtractSubvector(t *testing.T) {
	v := grb.NewSparse[int64](10)
	v.SetElement(2, 20)
	v.SetElement(4, 40)
	sub := grb.ExtractSubvector(v, []grb.Index{2, 3, 4})
	if sub.NVals() != 2 {
		t.Fatalf("NVals = %d, want 2 (index 3 absent)", sub.NVals())
	}
	if x, _ := sub.Extract(4); x != 40 {
		t.Fatalf("sub[4] = %d", x)
	}
}

func TestGenericSemiringPaths(t *testing.T) {
	// A user-defined semiring (max_second over int64) must run through the
	// generic operator-pointer paths of VxM, MxV and MxVFull.
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
	full := grb.MxVFull(par.Default(), at, grb.NewFull[int64](4, 5), maxSecond, 2)
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

func TestVectorCloneAndStructure(t *testing.T) {
	v := grb.NewSparse[int64](10)
	v.SetElement(4, 44)
	c := v.Clone()
	c.SetElement(5, 55)
	if v.NVals() != 1 || c.NVals() != 2 {
		t.Fatal("clone shares storage")
	}
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
	if bm.Fmt() != grb.Bitmap || v.Fmt() != grb.Sparse {
		t.Fatal("Fmt wrong")
	}
	if st.Len() != 10 {
		t.Fatal("Len wrong")
	}
}

func TestAssignMaskedAndApplyFormats(t *testing.T) {
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
	// EWiseApply across formats.
	grb.EWiseApply(dst, func(_ grb.Index, x int64) int64 { return x + 1 })
	if d[1] != 12 || d[0] != 1 {
		t.Fatalf("full apply wrong: %v", d)
	}
	bm := src.ToBitmap()
	grb.EWiseApply(bm, func(_ grb.Index, x int64) int64 { return -x })
	if x, _ := bm.Extract(1); x != -11 {
		t.Fatalf("bitmap apply wrong: %d", x)
	}
	minI64 := grb.Monoid[int64]{Identity: 1 << 62, Op: func(x, y int64) int64 {
		if x < y {
			return x
		}
		return y
	}}
	if got := grb.ReduceVec(bm, minI64); got != -22 {
		t.Fatalf("reduce after apply = %d", got)
	}
}

func TestMonoidConstructors(t *testing.T) {
	if grb.PlusMonoidF64().Op(1.5, 2.5) != 4 {
		t.Fatal("PlusMonoidF64 wrong")
	}
	if grb.PlusPair().Mult(123, 9, 7) != 1 {
		t.Fatal("PlusPair mult must ignore operands")
	}
	mf := grb.MinFirst()
	if mf.Mult(42, 9, 7) != 42 {
		t.Fatal("MinFirst mult must return qval")
	}
}

func TestDenseMatrixBasics(t *testing.T) {
	d := grb.NewDenseMatrix(2, 5)
	if d.Rows() != 2 || d.Cols() != 5 || d.NVals() != 0 {
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
	if d.RowNVals(0) != 1 || d.NVals() != 2 {
		t.Fatal("counts wrong")
	}
}

func TestDenseMxMMatchesVectorProduct(t *testing.T) {
	a := testMatrix(t)
	// Two frontier rows: {0:1} and {2:3}.
	f := grb.NewDenseMatrix(2, 4)
	f.Set(0, 0, 1)
	f.Set(1, 2, 3)
	at := a.Transpose()
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
	if out.RowNVals(0) != 1 || out.RowNVals(1) != 2 {
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
	grb.DenseMxM(par.Default(), out, f, a, a.Transpose(), func(int) *grb.Mask { return nil }, nil, 2)
	if v, ok := out.Get(0, 2); !ok || v != 7 {
		t.Fatalf("accumulated = %v,%v want 7", v, ok)
	}
}
