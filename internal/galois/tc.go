package galois

import (
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// triangleCount is the GAP order-invariant triangle count (Table III: Galois
// and GAP share the algorithm) scheduled with fine-grained dynamic chunks —
// the "better work stealing and load balancing" that §V-F says lets Galois
// beat GAP on the skewed Web graph, at the cost of stealing overhead on
// uniform-degree graphs like Urand.
func triangleCount(exec *par.Machine, u *graph.Graph) int64 {
	n := int(u.NumNodes())
	// Chunk of 8 vertices: much finer than GAP's 64, trading coordination
	// for balance on skewed rows.
	return exec.ReduceDynamicInt64(n, 8, 0, func(lo, hi int) int64 {
		var count int64
		for a := lo; a < hi; a++ {
			na := u.OutNeighbors(graph.NodeID(a))
			for _, b := range na {
				if b > graph.NodeID(a) {
					break
				}
				nb := u.OutNeighbors(b)
				it := 0
				for _, w := range nb {
					if w > b {
						break
					}
					for na[it] < w {
						it++
					}
					if na[it] == w {
						count++
					}
				}
			}
		}
		return count
	})
}
