package grb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// The property tests below hold every masked product to one reference: a
// fold over A's rows in ascending source order, straight from the semiring's
// Mult and Monoid.Op. Ascending order is the order every kernel promises
// (serial push, the parallel push's worker-order merge and the pull's sorted
// transpose rows), so each product must match it exactly, floats and ANY
// witnesses included.

// kernelGraph is a seeded random directed weighted graph of n vertices and
// about n*deg edges, as (A, A') with weights.
func kernelGraph(t *testing.T, seed int64, n, deg int) (*Matrix, *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.WEdge, 0, n*deg)
	for u := 0; u < n; u++ {
		for e := rng.Intn(2 * deg); e > 0; e-- {
			edges = append(edges, graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(50))})
		}
	}
	g, err := graph.BuildWeighted(edges, graph.BuildOptions{Directed: true, NumNodes: int32(n)})
	if err != nil {
		t.Fatal(err)
	}
	return FromGraph(g, false, true), FromGraph(g, true, true)
}

// referenceVxM is w<mask> = q' * A folded in ascending source order.
func referenceVxM[T Number](q *Vector[T], a *Matrix, s Semiring[T], mask *Mask) *Vector[T] {
	out := newBitmap[T](a.ncols)
	q.Iterate(func(k Index, qv T) {
		cols, ws := a.Row(k)
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
	})
	return out
}

// sameProduct fails the test unless got and want store the same entries.
func sameProduct[T Number](t *testing.T, label string, want, got *Vector[T]) {
	t.Helper()
	if got.format != Bitmap || got.n != want.n {
		t.Fatalf("%s: product is format %v size %d, want a bitmap of size %d", label, got.format, got.n, want.n)
	}
	for i := Index(0); i < want.n; i++ {
		wv, wok := want.Extract(i)
		gv, gok := got.Extract(i)
		if wok != gok || (wok && wv != gv) {
			t.Fatalf("%s: index %d: got (%v, %v), want (%v, %v)", label, i, gv, gok, wv, wok)
		}
	}
}

// poisonedOut is a recycled output of size n whose stale values are NaN (or
// -99 for integer types) and whose stale presence covers every third index.
func poisonedOut[T Number](n Index) *Vector[T] {
	v := newBitmap[T](n)
	for i := range v.dense {
		v.dense[i] = T(-99)
	}
	if d, ok := any(v.dense).([]float64); ok {
		for i := range d {
			d[i] = math.NaN()
		}
	}
	for i := Index(0); i < n; i += 3 {
		v.present.Set(i)
	}
	return v
}

// kernelFrontiers returns seeded frontiers of n entries: a small one (its
// scatter serial) and a large one (its scatter above pushSerialCutoff), each
// in sparse and bitmap format.
func kernelFrontiers[T Number](rng *rand.Rand, n Index, value func(*rand.Rand) T) map[string]*Vector[T] {
	out := map[string]*Vector[T]{}
	for _, size := range []struct {
		name string
		keep float64
	}{{"small", 0.003}, {"large", 0.6}} {
		q := NewSparse[T](n)
		for k := Index(0); k < n; k++ {
			if rng.Float64() < size.keep {
				q.ind = append(q.ind, k)
				q.val = append(q.val, value(rng))
			}
		}
		out[size.name+"/sparse"] = q
		out[size.name+"/bitmap"] = q.ToBitmap()
	}
	return out
}

// kernelMasks returns no mask, plain and complement masks over a sparse and a
// dense bitmap, so the pull's survivor count lands on both sides of
// pullSerialRows.
func kernelMasks(rng *rand.Rand, n Index) map[string]*Mask {
	out := map[string]*Mask{"none": nil}
	for _, density := range []float64{0.2, 0.8} {
		b := graph.NewBitmap(n)
		for i := Index(0); i < n; i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		out[fmt.Sprintf("plain%.1f", density)] = NewMask(b, false)
		out[fmt.Sprintf("complement%.1f", density)] = NewMask(b, true)
	}
	return out
}

// checkKernels runs every product of one semiring over every frontier and
// mask against the reference.
func checkKernels[T Number](t *testing.T, exec *par.Machine, a, at *Matrix, s Semiring[T], value func(*rand.Rand) T) {
	rng := rand.New(rand.NewSource(11))
	n := a.nrows
	frontiers := kernelFrontiers(rng, n, value)
	if scout := frontierScout(exec, a, frontiers["large/sparse"]); scout <= pushSerialCutoff {
		t.Fatalf("large frontier scout %d does not reach the parallel push (cutoff %d)", scout, pushSerialCutoff)
	}
	masks := kernelMasks(rng, n)
	recycled := poisonedOut[T](a.ncols)
	for fname, q := range frontiers {
		for mname, mask := range masks {
			label := fmt.Sprintf("%s %s", fname, mname)
			want := referenceVxM(q, a, s, mask)
			sameProduct(t, label+" VxM", want, VxM(exec, q, a, s, mask))
			VxMInto(exec, q, a, s, mask, recycled)
			sameProduct(t, label+" VxMInto", want, recycled)
			sameProduct(t, label+" MxV", want, MxV(exec, at, q, s, mask))
			for _, policy := range []DirPolicy{DirPush, DirPull, DirAuto} {
				got := PushPullVxM(exec, q, a, at, s, mask, NewPushPullState(a, policy))
				sameProduct(t, fmt.Sprintf("%s PushPullVxM policy %d", label, policy), want, got)
			}
		}
	}
}

// TestKernelsMatchReference is the seeded property test of the push and pull
// kernels: on a random weighted graph large enough that both kernels take
// their serial and parallel forms, every product under every built-in
// semiring and one generic semiring must equal the reference fold.
func TestKernelsMatchReference(t *testing.T) {
	const n = 6000
	a, at := kernelGraph(t, 5, n, 8)
	if n <= 2*pullSerialRows {
		t.Fatalf("n = %d does not reach the parallel pull (%d rows)", n, pullSerialRows)
	}
	exec := par.NewMachine(4)
	defer exec.Close()
	ints := func(r *rand.Rand) int64 { return int64(r.Intn(1000)) }
	t.Run("AnySecondi", func(t *testing.T) { checkKernels(t, exec, a, at, AnySecondi(), ints) })
	t.Run("MinPlus", func(t *testing.T) {
		checkKernels(t, exec, a, at, MinPlus(), func(r *rand.Rand) int32 { return int32(r.Intn(1000)) })
	})
	t.Run("PlusFirst", func(t *testing.T) {
		checkKernels(t, exec, a, at, PlusFirst(), func(r *rand.Rand) float64 { return 0.1 * float64(1+r.Intn(1000)) })
	})
	t.Run("MinFirst", func(t *testing.T) { checkKernels(t, exec, a, at, MinFirst(), ints) })
	t.Run("generic max-plus", func(t *testing.T) {
		maxPlus := Semiring[int64]{
			Kind:   KindGeneric,
			Monoid: Monoid[int64]{Identity: math.MinInt64, Op: func(x, y int64) int64 { return max(x, y) }},
			Mult:   func(q int64, w int32, k Index) int64 { return q + int64(w) - k },
		}
		checkKernels(t, exec, a, at, maxPlus, ints)
	})
}

// TestDenseMxMRowsArePushPullVxM: each row of the batched product is the
// masked vector product of that row, under every direction policy.
func TestDenseMxMRowsArePushPullVxM(t *testing.T) {
	const n = 6000
	a, at := kernelGraph(t, 9, n, 8)
	exec := par.NewMachine(4)
	defer exec.Close()
	rng := rand.New(rand.NewSource(13))
	f := NewDenseMatrix(2, n)
	for r, keep := range []float64{0.003, 0.6} { // serial and parallel push rows
		for c := Index(0); c < n; c++ {
			if rng.Float64() < keep {
				f.Set(r, c, 0.1*float64(1+rng.Intn(1000)))
			}
		}
	}
	masks := kernelMasks(rng, n)
	rowMask := func(r int) *Mask { return []*Mask{masks["complement0.2"], masks["plain0.8"]}[r] }
	for _, policy := range []DirPolicy{DirPush, DirPull, DirAuto} {
		out := NewDenseMatrix(2, n)
		DenseMxM(exec, out, f, a, at, rowMask, denseStates(a, policy, policy))
		for r := range f.row {
			want := PushPullVxM(exec, f.row[r], a, at, PlusFirst(), rowMask(r), NewPushPullState(a, policy))
			sameProduct(t, fmt.Sprintf("policy %d row %d", policy, r), want, out.row[r])
		}
	}
}
