// Package nwgraph reproduces the NWGraph library the paper evaluates: a
// generic algorithms library whose kernels are written against minimal
// type concepts rather than a concrete graph structure (§III-C — "its
// algorithms are not written to use any particular graph data structures,
// but rather are written in terms of properties of types"). Here the
// concepts are Go interfaces consumed through type parameters, and the
// benchmark adapter wraps the shared CSR substrate. The genericity is real:
// every kernel in this package also runs against the map-based adjacency in
// the tests, exactly the "use NWGraph algorithms with the data types around
// which they have already structured their applications" pitch.
package nwgraph

// Vertex is a vertex identifier in the concept vocabulary.
type Vertex = int32

// AdjacencyList is the minimal "range of ranges" concept: a vertex count
// plus per-vertex neighbor ranges exposed as internal iterators (the Go
// analogue of C++20 ranges). Iteration stops early when yield returns false.
type AdjacencyList interface {
	NumVertices() int
	Degree(u Vertex) int
	// Neighbors iterates u's out-neighbors in ascending order.
	Neighbors(u Vertex, yield func(v Vertex) bool)
}

// BidirectionalAdjacency adds incoming edges, required by the pull-style
// kernels (PR's gather, BFS's bottom-up step).
type BidirectionalAdjacency interface {
	AdjacencyList
	InNeighbors(u Vertex, yield func(v Vertex) bool)
}

// WeightedAdjacency adds tuple edge properties (§III-C's "range-centric w/
// tuple edge properties") — here, the int32 weight SSSP consumes.
type WeightedAdjacency interface {
	AdjacencyList
	WeightedNeighbors(u Vertex, yield func(v Vertex, w int32) bool)
}
