package gap

import (
	"math"
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// PageRank runs the GAP reference algorithm: Jacobi-style pull SpMV — every
// vertex gathers its in-neighbors' contributions from the previous
// iteration's scores. §VI notes this reference "is no longer performance
// competitive" with the Gauss-Seidel variants several frameworks use; that
// deliberate gap is preserved here (and ablated in bench_test.go).
func PageRank(g *graph.Graph, opt kernel.Options) []float64 {
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	workers := opt.EffectiveWorkers()
	exec := opt.Exec()
	base := (1 - kernel.PRDamping) / float64(n)

	ranks := make([]float64, n)
	contrib := make([]float64, n)
	initial := 1 / float64(n)
	for i := range ranks {
		ranks[i] = initial
	}

	for it := 0; it < kernel.PRMaxIters; it++ {
		if opt.Cancelled() {
			return ranks // partial scores; the harness discards cancelled trials
		}
		// Scatter phase: precompute each vertex's per-edge contribution and
		// sum dangling mass.
		dangling := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for u := lo; u < hi; u++ {
				if deg := g.OutDegree(graph.NodeID(u)); deg > 0 {
					contrib[u] = ranks[u] / float64(deg)
				} else {
					contrib[u] = 0
					d += ranks[u]
				}
			}
			return d
		})
		danglingShare := kernel.PRDamping * dangling / float64(n)

		// Gather phase (pull over in-edges): race-free because vertex v only
		// writes ranks[v], reading the immutable contrib snapshot.
		delta := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range g.InNeighbors(graph.NodeID(v)) {
					sum += contrib[u]
				}
				next := base + danglingShare + kernel.PRDamping*sum
				d += math.Abs(next - ranks[v])
				ranks[v] = next
			}
			return d
		})
		if delta < kernel.PRTolerance {
			break
		}
	}
	return ranks
}

// PageRankGS is the Gauss-Seidel variant §VI recommends the reference adopt
// ("switching to a Gauss-Seidel approach for PR is far more practical, and
// the results of this study demonstrate the performance advantages of that
// approach"). It is not wired into the benchmark's GAP rows — the reference
// the paper measured is Jacobi — but it ships as the proposed improvement
// and is ablated in bench_test.go.
func PageRankGS(g *graph.Graph, opt kernel.Options) []float64 {
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	workers := opt.EffectiveWorkers()
	exec := opt.Exec()
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	contrib := make([]uint64, n)
	invDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		ranks[v] = 1 / float64(n)
		if d := g.OutDegree(graph.NodeID(v)); d > 0 {
			invDeg[v] = 1 / float64(d)
			contrib[v] = math.Float64bits(ranks[v] * invDeg[v])
		}
	}
	for it := 0; it < kernel.PRMaxIters; it++ {
		if opt.Cancelled() {
			return ranks
		}
		// Scores are stored scaled by mass; see kernel.PRMass.
		mass, dangling := kernel.PRMass(exec, ranks, invDeg, workers)
		c := 1 / mass
		share := kernel.PRDamping * c * dangling / float64(n)
		dc := kernel.PRDamping * c
		delta := exec.ReduceFloat64(n, workers, func(lo, hi int) float64 {
			var d float64
			for vi := lo; vi < hi; vi++ {
				v := graph.NodeID(vi)
				sum := 0.0
				for _, u := range g.InNeighbors(v) {
					sum += math.Float64frombits(atomic.LoadUint64(&contrib[u]))
				}
				next := base + share + dc*sum
				d += math.Abs(next - c*ranks[v])
				s := next * mass
				ranks[v] = s
				if invDeg[v] != 0 {
					atomic.StoreUint64(&contrib[v], math.Float64bits(s*invDeg[v]))
				}
			}
			return d
		})
		if delta < kernel.PRTolerance {
			break
		}
	}
	return kernel.PRUnitMass(ranks)
}
