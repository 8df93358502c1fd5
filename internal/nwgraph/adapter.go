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

// appendNeighbors appends u's neighbors to buf through the generic iterator
// and returns the grown buffer; it is TC's row copy for graph types that
// offer no NeighborSlice.
func appendNeighbors(g AdjacencyList, u Vertex, buf []Vertex) []Vertex {
	g.Neighbors(u, func(v Vertex) bool {
		buf = append(buf, v)
		return true
	})
	return buf
}
