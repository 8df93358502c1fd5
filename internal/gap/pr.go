package gap

import (
	"math"

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
	exec := opt.Exec()
	base := (1 - kernel.PRDamping) / float64(n)

	ranks := make([]float64, n)
	contrib := make([]float64, n)
	initial := 1 / float64(n)
	for i := range ranks {
		ranks[i] = initial
	}

	for it := 0; it < kernel.PRMaxIters; it++ {
		if exec.Interrupted() {
			return ranks // partial scores; the harness discards cancelled trials
		}
		// Scatter phase: precompute each vertex's per-edge contribution and
		// sum dangling mass.
		dangling := exec.ReduceFloat64(n, 0, func(lo, hi int) float64 {
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
		delta := exec.ReduceFloat64(n, 0, func(lo, hi int) float64 {
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
