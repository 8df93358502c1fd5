// Package verify holds serial oracle implementations of the six GAP kernels
// and GAP-spec result verifiers. Every timed benchmark run is checked against
// these; the paper's §VI recommends exactly this kind of formally specified
// verification, and this package is that recommendation made executable.
package verify

import (
	"container/heap"
	"math"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// BFSDepths runs a serial BFS from src over out-edges and returns per-vertex
// depths, -1 for unreachable vertices.
func BFSDepths(g *graph.Graph, src graph.NodeID) []int32 {
	n := g.NumNodes()
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	if n == 0 {
		return depth
	}
	depth[src] = 0
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

// distHeap is a binary heap for Dijkstra.
type distHeap struct {
	node []graph.NodeID
	dist []kernel.Dist
}

func (h *distHeap) Len() int           { return len(h.node) }
func (h *distHeap) Less(i, j int) bool { return h.dist[i] < h.dist[j] }
func (h *distHeap) Swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}
func (h *distHeap) Push(x any) {
	p := x.([2]int32)
	h.node = append(h.node, p[0])
	h.dist = append(h.dist, p[1])
}
func (h *distHeap) Pop() any {
	n := len(h.node) - 1
	p := [2]int32{h.node[n], h.dist[n]}
	h.node = h.node[:n]
	h.dist = h.dist[:n]
	return p
}

// Dijkstra computes exact shortest-path distances from src, the oracle
// against which every delta-stepping implementation is validated.
func Dijkstra(g *graph.Graph, src graph.NodeID) []kernel.Dist {
	n := g.NumNodes()
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	h := &distHeap{}
	heap.Push(h, [2]int32{src, 0})
	for h.Len() > 0 {
		p := heap.Pop(h).([2]int32)
		u, d := p[0], p[1]
		if d > dist[u] {
			continue // stale entry
		}
		neigh := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range neigh {
			nd := d + ws[i]
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(h, [2]int32{v, nd})
			}
		}
	}
	return dist
}

// PageRank runs serial Jacobi power iteration with the GAP parameters and
// returns the oracle score vector.
func PageRank(g *graph.Graph, maxIters int, tol float64) []float64 {
	n := int(g.NumNodes())
	if n == 0 {
		return nil
	}
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < maxIters; it++ {
		// Dangling mass (vertices with no out-edges) is redistributed
		// uniformly, the standard PageRank treatment.
		dangling := 0.0
		for u := 0; u < n; u++ {
			if d := g.OutDegree(graph.NodeID(u)); d > 0 {
				contrib[u] = ranks[u] / float64(d)
			} else {
				contrib[u] = 0
				dangling += ranks[u]
			}
		}
		danglingShare := kernel.PRDamping * dangling / float64(n)
		var delta float64
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.NodeID(v)) {
				sum += contrib[u]
			}
			next[v] = base + danglingShare + kernel.PRDamping*sum
			delta += math.Abs(next[v] - ranks[v])
		}
		ranks, next = next, ranks
		if delta < tol {
			break
		}
	}
	return ranks
}

// Components labels weakly connected components with serial BFS over the
// undirected structure. Labels are the minimum vertex id in each component,
// giving a canonical labeling.
func Components(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	labels := make([]graph.NodeID, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]graph.NodeID, 0, 1024)
	for s := int32(0); s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = s
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			visit := func(v graph.NodeID) {
				if labels[v] < 0 {
					labels[v] = s
					queue = append(queue, v)
				}
			}
			for _, v := range g.OutNeighbors(u) {
				visit(v)
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(u) {
					visit(v)
				}
			}
		}
	}
	return labels
}

// Betweenness runs serial Brandes' algorithm from the given roots and returns
// scores normalized by the maximum (the GAP reference's convention).
func Betweenness(g *graph.Graph, sources []graph.NodeID) []float64 {
	n := int(g.NumNodes())
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}
	depth := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	order := make([]graph.NodeID, 0, n)
	for _, src := range sources {
		for i := 0; i < n; i++ {
			depth[i] = -1
			sigma[i] = 0
			delta[i] = 0
		}
		order = order[:0]
		depth[src] = 0
		sigma[src] = 1
		queue := []graph.NodeID{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.OutNeighbors(u) {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
				if depth[v] == depth[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			for _, v := range g.OutNeighbors(u) {
				if depth[v] == depth[u]+1 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != src {
				scores[u] += delta[u]
			}
		}
	}
	normalizeBC(scores)
	return scores
}

// normalizeBC divides scores by the maximum score, matching the GAP
// reference output convention. A zero vector is left unchanged.
func normalizeBC(scores []float64) {
	maxScore := 0.0
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	if maxScore > 0 {
		for i := range scores {
			scores[i] /= maxScore
		}
	}
}

// Triangles counts triangles exactly on the undirected view, each triangle
// once. Vertices are ranked by (degree, id) with a counting sort and every
// edge is kept only at its lower-ranked endpoint, so a forward list holds at
// most O(√m) vertices however large its owner's degree. A triangle is
// counted at its lowest-ranked corner a: mark a's forward list, then scan the
// forward lists of its members for marked vertices — O(m^1.5) in total where
// merging the full lists re-scans a hub once per neighbour, O(Σ deg²). The
// rank is strict, so self-loops fall out with the orientation. No framework's
// TC works this way (they merge sorted lists or multiply matrices), which
// keeps the oracle an independent method.
func Triangles(g *graph.Graph) int64 {
	u := g.Undirected()
	n := u.NumNodes()
	var maxDeg int64
	for v := int32(0); v < n; v++ {
		maxDeg = max(maxDeg, u.OutDegree(v))
	}
	next := make([]int32, maxDeg+2) // next[d]: the rank the next degree-d vertex gets
	for v := int32(0); v < n; v++ {
		next[u.OutDegree(v)+1]++
	}
	for d := int64(1); d <= maxDeg; d++ {
		next[d] += next[d-1]
	}
	rank := make([]int32, n)
	for v := int32(0); v < n; v++ {
		d := u.OutDegree(v)
		rank[v] = next[d]
		next[d]++
	}

	fwdIndex := make([]int64, n+1)
	fwd := make([]graph.NodeID, 0, u.NumEdges()/2)
	for v := int32(0); v < n; v++ {
		for _, w := range u.OutNeighbors(v) {
			if rank[w] > rank[v] {
				fwd = append(fwd, w)
			}
		}
		fwdIndex[v+1] = int64(len(fwd))
	}

	var count int64
	marked := make([]bool, n)
	for a := int32(0); a < n; a++ {
		fa := fwd[fwdIndex[a]:fwdIndex[a+1]]
		for _, b := range fa {
			marked[b] = true
		}
		for _, b := range fa {
			for _, c := range fwd[fwdIndex[b]:fwdIndex[b+1]] {
				if marked[c] {
					count++
				}
			}
		}
		for _, b := range fa {
			marked[b] = false
		}
	}
	return count
}
