package kernel

import (
	"fmt"
	"math"

	"gapbench/internal/invariant"
	"gapbench/internal/par"
)

// PRMass is the start-of-sweep pass of the Gauss-Seidel PageRank kernels. It
// returns the stored rank mass Σ ranks and the stored dangling mass (Σ ranks[u]
// over the u with invDeg[u] == 0) from one ForWorker region, one pair of
// partial sums per worker combined in worker order.
//
// A Gauss-Seidel sweep does not conserve mass: each update reads a mix of
// this sweep's and last sweep's contributions, so Σ ranks drifts from 1, and a
// dangling share computed from the drifted scores feeds the error back into
// every vertex. The kernels therefore keep the scores lazily scaled: the true
// score of v is c × ranks[v] with c = 1/mass, the share is d·c·dangling/n, a
// sweep computes next = base + share + d·c·Σcontrib, measures its delta
// against c × ranks[v] and stores next × mass. That renormalises every sweep
// at one multiply per vertex and no region of its own; PRUnitMass rescales
// once at return. The SPEC fixed point has unit mass, so the answer's target
// is unchanged. The first sweep starts from 1/n everywhere and, when those
// sum to exactly 1, is bit-for-bit the unscaled sweep.
//
// Armed (invariant.Armed), a stored mass that is not finite and positive
// panics naming the invariant "pr-mass-finite": NaN or Inf scores would
// otherwise pass the convergence test silently (every comparison with NaN is
// false). A region the machine's token cut short is partial, not wrong, so an
// interrupted machine skips the assertion.
func PRMass(exec *par.Machine, ranks, invDeg []float64, workers int) (mass, dangling float64) {
	// ForWorker runs at most max(workers, exec.Size()) slots (workers < 1
	// means the machine's size).
	partial := make([][2]float64, max(workers, exec.Size()))
	exec.ForWorker(len(ranks), workers, func(w, lo, hi int) {
		var m, d float64
		for u := lo; u < hi; u++ {
			r := ranks[u]
			m += r
			if invDeg[u] == 0 {
				d += r
			}
		}
		partial[w] = [2]float64{m, d}
	})
	for _, p := range partial {
		mass += p[0]
		dangling += p[1]
	}
	if invariant.Armed() && !exec.Interrupted() && !(mass > 0 && mass <= math.MaxFloat64) {
		panic(fmt.Sprintf("kernel: prcheck: PRMass: invariant %q violated: stored rank mass is %v, want finite and positive", "pr-mass-finite", mass))
	}
	return mass, dangling
}

// PRUnitMass rescales the stored scores of a Gauss-Seidel PageRank to unit
// mass, the scaling PRMass defers, and returns them. It runs once per call,
// after the last sweep, serially: a region here would add a launch to every
// trial for an O(n) pass the sweeps dwarf.
func PRUnitMass(ranks []float64) []float64 {
	var mass float64
	for _, r := range ranks {
		mass += r
	}
	c := 1 / mass
	for v := range ranks {
		ranks[v] *= c
	}
	return ranks
}
