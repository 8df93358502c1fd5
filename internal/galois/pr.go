package galois

import (
	"math"
	"sync/atomic"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// pagerankGS is Galois' Gauss-Seidel-style PageRank: per-edge contributions
// (rank/degree) are stored pre-scaled and updated in place, so later
// vertices within a sweep already see this sweep's earlier updates. §V-D:
// "Galois is faster than GAP because its Gauss-Seidel-style algorithm
// converges faster and performs fewer operations", with the advantage
// growing with graph diameter — a shape this reproduction recovers on every
// graph, by most on the high-diameter ones, because each sweep starts from
// scores rescaled to unit mass (kernel.PRMass).
//
// Parallel Gauss-Seidel is chaotic relaxation: workers read whatever
// contribution a neighbor currently has. The contribution array is accessed
// through atomic loads/stores of float64 bit patterns (plain MOVs on the
// architectures we run on) to keep the chaos well-defined under the Go
// memory model. The sweep is a topology-driven loop over statically blocked
// ranges, the analogue of Galois' NUMA-blocked dense worklist.
func pagerankGS(exec *par.Machine, g *graph.Graph, workers int) []float64 {
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	contrib := make([]uint64, n) // float64 bits of rank/out-degree
	invDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		ranks[v] = 1 / float64(n)
		if d := g.OutDegree(graph.NodeID(v)); d > 0 {
			invDeg[v] = 1 / float64(d)
			contrib[v] = math.Float64bits(ranks[v] * invDeg[v])
		}
	}

	for it := 0; it < kernel.PRMaxIters; it++ {
		if exec.Interrupted() {
			return ranks // partial scores; the harness discards cancelled trials
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
				ranks[v] = s // ranks[v] is owner-written only
				if invDeg[v] != 0 {
					// In place: successors see it within this same sweep.
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
