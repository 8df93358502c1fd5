package nwgraph

import "gapbench/internal/graph"

// CSR adapts the shared CSR substrate to the NWGraph concepts. This is the
// adapter the benchmarks run through; it satisfies all three concepts.
type CSR struct {
	g *graph.Graph
}

// NewCSR wraps a CSR graph.
func NewCSR(g *graph.Graph) *CSR { return &CSR{g: g} }

// NumVertices implements AdjacencyList.
func (c *CSR) NumVertices() int { return int(c.g.NumNodes()) }

// Degree implements AdjacencyList.
func (c *CSR) Degree(u Vertex) int { return int(c.g.OutDegree(u)) }

// Neighbors implements AdjacencyList.
func (c *CSR) Neighbors(u Vertex, yield func(v Vertex) bool) {
	for _, v := range c.g.OutNeighbors(u) {
		if !yield(v) {
			return
		}
	}
}

// InNeighbors implements BidirectionalAdjacency.
func (c *CSR) InNeighbors(u Vertex, yield func(v Vertex) bool) {
	for _, v := range c.g.InNeighbors(u) {
		if !yield(v) {
			return
		}
	}
}

// WeightedNeighbors implements WeightedAdjacency.
func (c *CSR) WeightedNeighbors(u Vertex, yield func(v Vertex, w int32) bool) {
	neigh := c.g.OutNeighbors(u)
	ws := c.g.OutWeights(u)
	for i, v := range neigh {
		if !yield(v, ws[i]) {
			return
		}
	}
}

// NeighborSlice exposes the raw sorted neighbor slice. Triangle counting
// uses it the way NWGraph's TC uses contiguous ranges; types that cannot
// provide one fall back to materializing via Neighbors.
func (c *CSR) NeighborSlice(u Vertex) []Vertex { return c.g.OutNeighbors(u) }

// InNeighborSlice exposes the raw in-neighbor slice; the PageRank gather
// specializes on this capability (the moral equivalent of the contiguous-
// range specialization a C++ template instantiation performs for free).
func (c *CSR) InNeighborSlice(u Vertex) []Vertex { return c.g.InNeighbors(u) }

// sortedNeighbors returns u's neighbors as a sorted slice for any
// AdjacencyList, using the zero-copy fast path when the type offers one.
// The second return value is the (possibly grown) scratch buffer to pass
// back on the next call; the first return value must not be retained across
// calls that share the buffer.
func sortedNeighbors(g AdjacencyList, u Vertex, buf []Vertex) ([]Vertex, []Vertex) {
	if fast, ok := g.(interface{ NeighborSlice(Vertex) []Vertex }); ok {
		return fast.NeighborSlice(u), buf
	}
	buf = buf[:0]
	g.Neighbors(u, func(v Vertex) bool {
		buf = append(buf, v)
		return true
	})
	return buf, buf
}
