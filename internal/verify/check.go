package verify

import (
	"fmt"
	"math"
	"slices"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// CheckBFS validates a parent array against the GAP specification: reachable
// vertices (per a serial BFS) must have a parent that is a real in-neighbor
// exactly one level closer to the source, unreachable vertices must have
// parent -1, and the source must be its own parent.
func CheckBFS(g *graph.Graph, src graph.NodeID, parent []graph.NodeID) error {
	n := int(g.NumNodes())
	if len(parent) != n {
		return fmt.Errorf("bfs: result length %d != n %d", len(parent), n)
	}
	depth := BFSDepths(g, src)
	for v := 0; v < n; v++ {
		p := parent[v]
		switch {
		case depth[v] < 0:
			if p != -1 {
				return fmt.Errorf("bfs: vertex %d is unreachable but has parent %d", v, p)
			}
		case graph.NodeID(v) == src:
			if p != src {
				return fmt.Errorf("bfs: source parent is %d, want self (%d)", p, src)
			}
		default:
			if p < 0 || int(p) >= n {
				return fmt.Errorf("bfs: vertex %d reachable (depth %d) but parent is %d", v, depth[v], p)
			}
			if depth[p] != depth[v]-1 {
				return fmt.Errorf("bfs: vertex %d at depth %d has parent %d at depth %d", v, depth[v], p, depth[p])
			}
			if !hasEdge(g, p, graph.NodeID(v)) {
				return fmt.Errorf("bfs: claimed parent edge %d->%d does not exist", p, v)
			}
		}
	}
	return nil
}

// hasEdge reports whether the directed edge u->v exists, by binary search in
// u's sorted out-adjacency.
func hasEdge(g *graph.Graph, u, v graph.NodeID) bool {
	_, found := slices.BinarySearch(g.OutNeighbors(u), v)
	return found
}

// CheckSSSP validates distances against a serial Dijkstra run.
func CheckSSSP(g *graph.Graph, src graph.NodeID, dist []kernel.Dist) error {
	n := int(g.NumNodes())
	if len(dist) != n {
		return fmt.Errorf("sssp: result length %d != n %d", len(dist), n)
	}
	want := Dijkstra(g, src)
	for v := 0; v < n; v++ {
		if dist[v] != want[v] {
			return fmt.Errorf("sssp: dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	return nil
}

// CheckCC validates component labels: vertices must share a label iff they
// share a weakly connected component (compared against the serial oracle).
func CheckCC(g *graph.Graph, labels []graph.NodeID) error {
	n := int(g.NumNodes())
	if len(labels) != n {
		return fmt.Errorf("cc: result length %d != n %d", len(labels), n)
	}
	want := Components(g)
	// For each oracle component, all members must share one result label and
	// that label must not be used by any other component.
	owner := map[graph.NodeID]graph.NodeID{} // result label -> oracle label
	repr := map[graph.NodeID]graph.NodeID{}  // oracle label -> result label
	for v := 0; v < n; v++ {
		rl, ol := labels[v], want[v]
		if prev, ok := repr[ol]; ok {
			if prev != rl {
				return fmt.Errorf("cc: vertices in one component carry labels %d and %d", prev, rl)
			}
		} else {
			repr[ol] = rl
		}
		if prev, ok := owner[rl]; ok {
			if prev != ol {
				return fmt.Errorf("cc: label %d spans two components", rl)
			}
		} else {
			owner[rl] = ol
		}
	}
	return nil
}

// CheckSCC validates a strongly-connected-component partition numbered sinks
// first: comp[v] is v's component id, in [0, n). Ids need not be dense or in
// any one topological order. Two conditions, each O(n+m), prove the partition
// is exactly the SCCs without trusting the algorithm that produced it:
//
//   - no arc climbs: every arc stays inside its component or points to a
//     lower id, so no cycle crosses two components (no SCC is split);
//   - every component is strongly connected: a forward and a backward
//     traversal from its first member, restricted to the component, each
//     cover it (no two SCCs are merged).
func CheckSCC(g *graph.Graph, comp []int32) error {
	n := int(g.NumNodes())
	if len(comp) != n {
		return fmt.Errorf("scc: result length %d != n %d", len(comp), n)
	}
	first := make([]graph.NodeID, n) // first member of each id, -1 if unused
	size := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	for v, x := range comp {
		if x < 0 || int(x) >= n {
			return fmt.Errorf("scc: vertex %d has component id %d outside [0,%d)", v, x, n)
		}
		if first[x] < 0 {
			first[x] = graph.NodeID(v)
		}
		size[x]++
	}
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			if comp[v] > comp[u] {
				return fmt.Errorf("scc: arc %d->%d climbs from component %d to %d", u, v, comp[u], comp[v])
			}
		}
	}
	// Each vertex is visited once per direction, in its own component's
	// traversal, so one mark array per direction serves every component. An
	// undirected graph's in-arcs are its out-arcs: one direction is both.
	outIndex, outNeigh := g.RawOut()
	inIndex, inNeigh := g.RawIn()
	dirs := []struct {
		index []int64
		neigh []graph.NodeID
		way   string
	}{{outIndex, outNeigh, "reaches"}, {inIndex, inNeigh, "is reached by"}}
	if !g.Directed() {
		dirs = dirs[:1]
	}
	mark := make([]bool, n)
	var queue []graph.NodeID
	for _, d := range dirs {
		clear(mark)
		for x, r := range first {
			if r < 0 {
				continue
			}
			mark[r] = true
			queue = append(queue[:0], r)
			covered := int32(0)
			for len(queue) > 0 {
				u := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				covered++
				for _, v := range d.neigh[d.index[u]:d.index[u+1]] {
					if !mark[v] && int(comp[v]) == x {
						mark[v] = true
						queue = append(queue, v)
					}
				}
			}
			if covered != size[x] {
				return fmt.Errorf("scc: component %d is not strongly connected: its vertex %d %s %d of its %d members",
					x, r, d.way, covered, size[x])
			}
		}
	}
	return nil
}

// CheckPR validates PageRank scores: they must sum to ~1 and applying one
// more Jacobi iteration must move them by less than the convergence budget —
// the same style of fixed-point residual check the GAP verifier performs.
// This accepts any correctly converged method (Jacobi or Gauss-Seidel).
func CheckPR(g *graph.Graph, ranks []float64) error {
	n := int(g.NumNodes())
	if len(ranks) != n {
		return fmt.Errorf("pr: result length %d != n %d", len(ranks), n)
	}
	if n == 0 {
		return nil
	}
	var sum float64
	for _, r := range ranks {
		if math.IsNaN(r) || r < 0 {
			return fmt.Errorf("pr: invalid score %v", r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-3 {
		return fmt.Errorf("pr: scores sum to %v, want ~1", sum)
	}
	base := (1 - kernel.PRDamping) / float64(n)
	contrib := make([]float64, n)
	dangling := 0.0
	for u := 0; u < n; u++ {
		if d := g.OutDegree(graph.NodeID(u)); d > 0 {
			contrib[u] = ranks[u] / float64(d)
		} else {
			dangling += ranks[u]
		}
	}
	danglingShare := kernel.PRDamping * dangling / float64(n)
	var residual float64
	for v := 0; v < n; v++ {
		s := 0.0
		for _, u := range g.InNeighbors(graph.NodeID(v)) {
			s += contrib[u]
		}
		residual += math.Abs(base + danglingShare + kernel.PRDamping*s - ranks[v])
	}
	// The kernels stop when the L1 delta drops below PRTolerance, and one
	// more Jacobi step from there moves the vector by at most PRDamping
	// times that delta, so the GAP reference verifier's bound, the tolerance
	// itself, holds for every converged method. An answer stopped one
	// iteration short meets it too; two short does not.
	if residual > kernel.PRTolerance {
		return fmt.Errorf("pr: fixed-point residual %v exceeds %v", residual, kernel.PRTolerance)
	}
	return nil
}

// CheckBC validates normalized betweenness scores against the serial Brandes
// oracle for the same roots, within a floating-point reassociation tolerance.
func CheckBC(g *graph.Graph, sources []graph.NodeID, scores []float64) error {
	n := int(g.NumNodes())
	if len(scores) != n {
		return fmt.Errorf("bc: result length %d != n %d", len(scores), n)
	}
	want := Betweenness(g, sources)
	for v := 0; v < n; v++ {
		if math.IsNaN(scores[v]) {
			return fmt.Errorf("bc: score[%d] is NaN", v)
		}
		diff := math.Abs(scores[v] - want[v])
		if diff > 1e-6+1e-4*math.Abs(want[v]) {
			return fmt.Errorf("bc: score[%d] = %v, want %v", v, scores[v], want[v])
		}
	}
	return nil
}

// CheckTC validates a triangle count against the exact serial oracle.
func CheckTC(g *graph.Graph, count int64) error {
	want := Triangles(g)
	if count != want {
		return fmt.Errorf("tc: count = %d, want %d", count, want)
	}
	return nil
}
