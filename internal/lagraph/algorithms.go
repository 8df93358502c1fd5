package lagraph

import (
	"math"

	"gapbench/internal/grb"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// bfsParents is the LAGraph direction-optimizing BFS of §III-A: the push
// step is q'<!pi> = q'*A over the any_secondi semiring, the pull step is
// q<!pi> = A'*q, followed by the masked assignment pi<q> = q. The vector q
// is converted to a sparse list for pushing and a bitmap for pulling, with
// the conversions inside the timed region. Direction dispatch lives in
// grb.PushPullVxM: a Beamer-style degree-sum heuristic (or a pinned policy,
// for the direction benchmarks) replaces the old frontier-size cutoff, and
// the pull side gathers only over the complement mask's surviving rows
// instead of rescanning all n each round.
func bfsParents(exec *par.Machine, m *matrices, src grb.Index, policy grb.DirPolicy, workers int) *grb.Vector[int64] {
	s := grb.AnySecondi()
	// pi starts in bitmap format: one entry (the source, its own parent).
	pi := grb.NewSparse[int64](m.a.NRows()).ToBitmap()
	pi.SetElement(src, src)
	q := grb.NewSparse[int64](m.a.NRows())
	q.SetElement(src, src)
	st := grb.NewPushPullState(m.a, policy)
	// Round r's frontier is dead once round r+1 has consumed it, so the
	// dispatch state may recycle its output vectors through its ring.
	st.Recycle = true

	for q.NVals() > 0 {
		if exec.Interrupted() {
			return pi // partial; the harness discards cancelled trials
		}
		notVisited := grb.NewMask(pi.Structure(), true)
		q = grb.PushPullVxM(exec, q, m.a, m.at, s, notVisited, st, workers)
		grb.AssignMasked(pi, q, grb.NewMask(q.Structure(), false))
	}
	return pi
}

// deltaStepping is the LAGraph min-plus delta-stepping SSSP. Each bucket is
// extracted from the full distance vector with a select (an O(n) scan per
// bucket — the structural cost that makes GraphBLAS SSSP collapse on Road,
// §V-B), then relaxed to a fixed point with masked min-plus products.
func deltaStepping(exec *par.Machine, aw *grb.Matrix, src grb.Index, delta kernel.Dist, workers int) *grb.Vector[int32] {
	n := aw.NRows()
	s := grb.MinPlus()
	t := grb.NewFull[int32](n, kernel.Inf)
	t.SetElement(src, 0)
	dense := t.Dense()
	// One relaxation output for the whole search, recycled through VxMInto.
	relaxed := grb.NewSparse[int32](n).ToBitmap()

	for b := int32(0); ; {
		if exec.Interrupted() {
			return t // partial; the harness discards cancelled trials
		}
		lo := b * delta
		hi := lo + delta
		tm := grb.SelectRange(t, lo, hi)
		if tm.NVals() == 0 {
			// Skip ahead to the next occupied bucket, if any.
			next := int32(math.MaxInt32)
			for _, d := range dense {
				if d >= hi && d < next {
					next = d
				}
			}
			if next == math.MaxInt32 {
				break
			}
			b = next / delta
			continue
		}
		// Relax this bucket to a fixed point.
		for tm.NVals() > 0 {
			grb.VxMInto(exec, tm, aw, s, nil, relaxed, workers)
			improvedInBucket := grb.NewSparse[int32](n)
			relaxed.Iterate(func(j grb.Index, x int32) {
				if x < dense[j] {
					dense[j] = x
					if x >= lo && x < hi {
						improvedInBucket.SetElement(j, x)
					}
				}
			})
			tm = improvedInBucket
		}
		b++
	}
	return t
}

// pagerank is LAGraph's PR: full-vector operations only. The structural
// plus_first SpMV touches only the adjacency pattern; contributions are
// prescaled by out-degree, so this is exactly the paper's "plus-second"
// formulation under this package's operand orientation.
func pagerank(exec *par.Machine, m *matrices, workers int) *grb.Vector[float64] {
	n := m.at.NRows()
	if n == 0 {
		return grb.NewFull[float64](0, 0)
	}
	s := grb.PlusFirst()
	base := (1 - kernel.PRDamping) / float64(n)
	r := grb.NewFull(n, 1/float64(n))
	w := grb.NewFull[float64](n, 0)
	// One scratch result vector reused across iterations via MxVFullInto —
	// the per-round Dense() materialization the gapvet perf lint flagged is
	// now a pointer swap.
	next := grb.NewFull[float64](n, 0)

	for it := 0; it < kernel.PRMaxIters; it++ {
		if exec.Interrupted() {
			return r // partial; the harness discards cancelled trials
		}
		rd := r.Dense()
		wd := w.Dense()
		dangling := 0.0
		for i := grb.Index(0); i < n; i++ {
			if m.degree[i] > 0 {
				wd[i] = rd[i] / m.degree[i]
			} else {
				wd[i] = 0
				dangling += rd[i]
			}
		}
		danglingShare := kernel.PRDamping * dangling / float64(n)
		grb.MxVFullInto(exec, m.at, w, s, next, workers)
		nd := next.Dense()
		var diff float64
		for i := grb.Index(0); i < n; i++ {
			nd[i] = base + danglingShare + kernel.PRDamping*nd[i]
			diff += math.Abs(nd[i] - rd[i])
		}
		r, next = next, r
		if diff < kernel.PRTolerance {
			break
		}
	}
	return r
}

// fastSV is the FastSV connected-components algorithm (Zhang, Azad, Hu —
// §III-A) in GraphBLAS form: each round takes the minimum neighbor label
// with a min_second product, hooks grandparents with the scatter-min kernel
// LAGraph had to hand-roll (§V-C), and shortcuts by pointer jumping, until
// the label vector reaches a fixed point.
func fastSV(exec *par.Machine, und *grb.Matrix, workers int) *grb.Vector[int64] {
	n := und.NRows()
	s := grb.MinFirst()
	f := grb.NewFull[int64](n, 0)
	fd := f.Dense()
	for i := range fd {
		fd[i] = int64(i)
	}
	if n == 0 {
		return f
	}
	gp := append([]int64(nil), fd...) // grandparent snapshot
	// Round-loop scratch hoisted out of the loop: the min-neighbor vector is
	// recomputed in place via MxVFullInto (every position is overwritten) and
	// the scatter-min operand slices are refilled, not reallocated.
	mngp := grb.NewFull[int64](n, s.Monoid.Identity)
	md := mngp.Dense()
	idx := make([]int64, n)
	val := make([]int64, n)

	for {
		if exec.Interrupted() {
			return f // partial; the harness discards cancelled trials
		}
		// mngp[v] = min_{u in N(v)} f[u] (isolated vertices keep MaxInt64).
		grb.MxVFullInto(exec, und, f, s, mngp, workers)

		// Stochastic hooking: f[gp[v]] = min(f[gp[v]], mngp[v]).
		for v := grb.Index(0); v < n; v++ {
			idx[v] = gp[v]
			val[v] = md[v]
		}
		grb.ScatterMin(f, idx, val)

		// Aggressive hooking + shortcutting: f[v] = min(f[v], mngp[v], gp[v]).
		for v := grb.Index(0); v < n; v++ {
			x := fd[v]
			if md[v] < x {
				x = md[v]
			}
			if gp[v] < x {
				x = gp[v]
			}
			fd[v] = x
		}

		// New grandparents; converged when they stop changing.
		changed := false
		for v := grb.Index(0); v < n; v++ {
			ng := fd[fd[v]]
			if ng != gp[v] {
				changed = true
			}
			gp[v] = ng
		}
		// Pointer jump once per round (FastSV's shortcut step).
		for v := grb.Index(0); v < n; v++ {
			fd[v] = gp[v]
		}
		if !changed {
			break
		}
	}
	return f
}

// betweenness is LAGraph's batch Brandes, batched for real: all roots
// advance together as one dense k-by-n matrix (§V-E: "most of the
// operations are matrix-matrix, where one matrix is dense and 4-by-n").
// The forward sweep is a masked dense-times-sparse product per level that
// accumulates per-root path counts; the backward sweep runs the same
// product over A' against the recorded per-root levels.
//
// Everything around the products costs the level it handles, not n: the two
// k-by-n operands ping-pong through every product of both sweeps, a root's
// levels are ranges of its visit-order list, and the backward masks are set
// and cleared from those ranges. What remains per level is what LAGraph BFS
// pays too — grb's word scans of n/64 presence words per row (§V-E: BC on
// Road "shares BFS's limitation").
func betweenness(exec *par.Machine, m *matrices, sources []grb.Index, workers int) []float64 {
	n := m.a.NRows()
	k := len(sources)
	scores := make([]float64, n)
	if n == 0 || k == 0 {
		return scores
	}

	// sigma[r] accumulates root r's path counts. Its structure is root r's
	// visited set, so its live complement masks the forward products.
	sigma := grb.NewDenseMatrix(k, n)
	cur, next := grb.NewDenseMatrix(k, n), grb.NewDenseMatrix(k, n)
	// order[r] lists root r's reached vertices in visit order, and
	// levelEnd[d*k+r] is where its depth-d vertices end in that list. Depths
	// are global: an exhausted root keeps recording empty levels.
	order := make([][]grb.Index, k)
	var levelEnd []int
	level := func(r, d int) []grb.Index {
		lo := 0
		if d > 0 {
			lo = levelEnd[(d-1)*k+r]
		}
		return order[r][lo:levelEnd[d*k+r]]
	}
	fwdMasks := make([]*grb.Mask, k)
	// Per-root Beamer accounting: each root row of the batch flips between the
	// scatter and the survivor-gather direction on its own schedule.
	states := make([]*grb.PushPullState, k)
	for r, src := range sources {
		sigma.Set(r, src, 1)
		cur.Set(r, src, 1)
		order[r] = append(make([]grb.Index, 0, n), src)
		levelEnd = append(levelEnd, 1)
		fwdMasks[r] = grb.NewMask(sigma.RowStructure(r), true)
		states[r] = grb.NewPushPullState(m.a, grb.DirAuto)
	}

	// Forward: one batched product per global level until every root's
	// frontier is empty. The mask admits unvisited vertices only, so each
	// product entry is a first visit carrying the vertex's whole path count.
	fwdMask := func(r int) *grb.Mask { return fwdMasks[r] }
	for live := k; live > 0; {
		if exec.Interrupted() {
			return scores // partial scores; the harness discards cancelled trials
		}
		grb.DenseMxM(exec, next, cur, m.a, m.at, fwdMask, states, workers)
		live = 0
		for r := 0; r < k; r++ {
			vals := next.RowValues(r)
			before := len(order[r])
			next.RowStructure(r).Each(func(c grb.Index) {
				sigma.Set(r, c, vals[c])
				order[r] = append(order[r], c)
			})
			levelEnd = append(levelEnd, len(order[r]))
			live += len(order[r]) - before
		}
		cur, next = next, cur
	}

	// Backward: per global depth (deepest first), one batched product over
	// A' pushes dependency shares from each root's level-d vertices to its
	// level-(d-1) parents. w is loaded and parents[r] — the row mask — set
	// from the two levels' ranges, and both are emptied from them afterwards.
	delta := make([][]float64, k)
	parents := make([]*grb.Bitset, k)
	bwdMasks := make([]*grb.Mask, k)
	for r := range delta {
		delta[r] = make([]float64, n)
		parents[r] = grb.NewBitset(n)
		bwdMasks[r] = grb.NewMask(parents[r], false)
	}
	bwdMask := func(r int) *grb.Mask { return bwdMasks[r] }
	w, t := cur, next
	w.Clear()
	for d := len(levelEnd)/k - 1; d >= 1; d-- {
		if exec.Interrupted() {
			return scores
		}
		for r := 0; r < k; r++ {
			sv, dl := sigma.RowValues(r), delta[r]
			for _, c := range level(r, d) {
				w.Set(r, c, (1+dl[c])/sv[c])
			}
			for _, c := range level(r, d-1) {
				parents[r].Set(c)
			}
		}
		grb.DenseMxM(exec, t, w, m.at, m.a, bwdMask, nil, workers)
		for r := 0; r < k; r++ {
			sv, dl := sigma.RowValues(r), delta[r]
			got, vals := t.RowStructure(r), t.RowValues(r)
			for _, c := range level(r, d-1) {
				if got.Get(c) {
					dl[c] += sv[c] * vals[c]
				}
				parents[r].Clear(c)
			}
			loaded := w.RowStructure(r)
			for _, c := range level(r, d) {
				loaded.Clear(c)
			}
		}
	}
	for r := range sources {
		for _, v := range order[r][1:] { // order[r][0] is the root itself
			scores[v] += delta[r][v]
		}
	}

	maxScore := 0.0
	for _, x := range scores {
		if x > maxScore {
			maxScore = x
		}
	}
	if maxScore > 0 {
		for i := range scores {
			scores[i] /= maxScore
		}
	}
	return scores
}

// triangleCount is the LAGraph TC of §III-A: L = tril(A,-1), U = triu(A,1),
// C<L> = L*U' over plus_pair, then reduce C to a scalar. The value matrix is
// materialized and then discarded, the unfused cost §V-F quantifies at ~2x.
func triangleCount(exec *par.Machine, und *grb.Matrix, workers int) int64 {
	l := und.Tril(-1)
	u := und.Triu(1)
	return grb.MxMPlusPairReduce(exec, l, u, workers)
}
