// Package graph is the shared graph substrate: a compressed-sparse-row (CSR)
// in-memory graph with both outgoing and incoming adjacency, 32-bit vertex
// identifiers, and optional 32-bit integer edge weights.
//
// Every framework in this repository operates on this one representation, in
// keeping with the GAP benchmark rule that "all algorithm implementations of a
// framework must operate on the same graph format". The GraphBLAS
// reproduction wraps it in 64-bit-indexed sparse matrices (paying the width
// tax the paper describes); everything else reads the CSR arrays directly.
package graph

import "fmt"

// NodeID identifies a vertex. The paper notes that all frameworks except
// GraphBLAS use 32-bit indices; this type is that 32-bit index.
type NodeID = int32

// Weight is an integer edge weight. The GAP benchmark assigns SSSP weights
// uniformly at random in [1, 255].
type Weight = int32

// Layout identifies the vertex/neighbor ordering a graph was built with. It
// is chosen at build time, recorded in the format-v2 file header, and
// transparent to kernels: every layout is a plain CSR, the layouts differ
// only in which vertex got which id (and therefore how adjacency segments
// cluster in memory).
type Layout uint8

const (
	// LayoutPlain keeps the vertex ids the generator or edge list assigned.
	LayoutPlain Layout = iota
	// LayoutDegree renumbers vertices in decreasing out-degree order
	// (DegreeRelabel) so hub rows — the rows kernels touch most — pack into
	// the leading pages of the neighbor sections, which keeps bandwidth-bound
	// kernels streaming instead of striding.
	LayoutDegree
)

// String names the layout as recorded in file headers and flag values.
func (l Layout) String() string {
	switch l {
	case LayoutPlain:
		return "plain"
	case LayoutDegree:
		return "degree"
	}
	return fmt.Sprintf("layout(%d)", uint8(l))
}

// ParseLayout inverts Layout.String for CLI flags.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "plain", "":
		return LayoutPlain, nil
	case "degree":
		return LayoutDegree, nil
	}
	return LayoutPlain, fmt.Errorf("graph: unknown layout %q (want plain or degree)", s)
}

// Graph is an immutable CSR graph. For directed graphs both the out-CSR and
// the in-CSR (transpose) are stored, matching the GAP reference which keeps
// both forms so that transposition never appears in timed regions. For
// undirected graphs the two views alias the same arrays.
//
// Adjacency lists are sorted by destination and deduplicated, as the paper
// states all frameworks do.
type Graph struct {
	n        int32
	directed bool

	outIndex []int64  // len n+1; out-neighbors of u are outNeigh[outIndex[u]:outIndex[u+1]]
	outNeigh []NodeID // len = number of stored directed edges
	inIndex  []int64  // transpose; aliases outIndex when undirected
	inNeigh  []NodeID

	// Weights parallel the adjacency arrays; nil for unweighted graphs.
	outWeight []Weight
	inWeight  []Weight

	// seal holds the graphguard checksums recorded by Seal (guard.go); nil
	// when unsealed or when the graphguard build tag is off.
	seal *[6]uint64

	// arena is the storage block the six views above point into. Builders
	// and loaders always populate it; it is nil only in a zero Graph, which
	// stays valid for tests poking fields directly.
	arena  *Arena
	layout Layout

	// epoch identifies the graph for journals and caches: the file header
	// checksum for graphs saved to or loaded from a format-v2 file (content
	// identity), a structural hash otherwise. Never zero once built.
	epoch uint64

	// hdrSums are the per-section checksums from the format-v2 header, kept
	// so mmap-backed graphs can Seal in O(1) instead of re-hashing gigabytes
	// (guard.go). Nil for graphs that never met a v2 file.
	hdrSums *[numSections]uint64

	// Provenance recorded by the generator (graphgen) and carried through
	// the v2 header so a loaded file can be matched back to its suite spec.
	provName  string
	provScale uint32
	provSeed  uint64
}

// Layout reports the vertex layout the graph was built with.
func (g *Graph) Layout() Layout { return g.layout }

// Epoch returns the graph's identity stamp: the format-v2 header checksum
// for saved/loaded graphs, a structural hash for built ones, 0 only for
// hand-assembled zero-value graphs. Journals record it so resumed runs can
// refuse an input that changed under them.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Arena returns the storage arena backing the CSR views, or nil for graphs
// assembled without one.
func (g *Graph) Arena() *Arena { return g.arena }

// Provenance returns the generator identity carried in the format-v2 header:
// suite graph name, scale, and seed. Empty/zero when unknown
// (hand-built graphs).
func (g *Graph) Provenance() (name string, scale uint32, seed uint64) {
	return g.provName, g.provScale, g.provSeed
}

// SetProvenance records the generator identity to be written into the
// format-v2 header. Call before SaveSG/WriteSG.
func (g *Graph) SetProvenance(name string, scale uint32, seed uint64) {
	if len(name) > provNameLen {
		name = name[:provNameLen]
	}
	g.provName, g.provScale, g.provSeed = name, scale, seed
}

// Close releases the graph's storage. For mmap-backed graphs this unmaps the
// file; for heap-backed graphs it drops the arena reference. Either way every
// CSR view is poisoned (nilled) first, so any retained *Graph fails with an
// ordinary nil-slice panic instead of faulting on an unmapped page. Safe on
// nil and safe to call twice. gapvet's arena-escape rule checks statically
// that no graph-derived slice outlives this call.
func (g *Graph) Close() error {
	if g == nil {
		return nil
	}
	g.outIndex, g.outNeigh, g.outWeight = nil, nil, nil
	g.inIndex, g.inNeigh, g.inWeight = nil, nil, nil
	g.seal, g.hdrSums = nil, nil
	a := g.arena
	g.arena = nil
	return a.close()
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int32 { return g.n }

// NumEdges returns the number of directed edges stored in the out-CSR. For an
// undirected graph each edge {u,v} is stored in both directions and therefore
// counted twice; use NumEdgesUndirected for the edge count in the usual sense.
func (g *Graph) NumEdges() int64 { return int64(len(g.outNeigh)) }

// NumEdgesUndirected returns the number of undirected edges: NumEdges for a
// directed graph, NumEdges/2 for an undirected one.
func (g *Graph) NumEdgesUndirected() int64 {
	if g.directed {
		return g.NumEdges()
	}
	return g.NumEdges() / 2
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.outWeight != nil }

// OutDegree returns the number of outgoing edges of u.
func (g *Graph) OutDegree(u NodeID) int64 { return g.outIndex[u+1] - g.outIndex[u] }

// InDegree returns the number of incoming edges of u.
func (g *Graph) InDegree(u NodeID) int64 { return g.inIndex[u+1] - g.inIndex[u] }

// OutNeighbors returns u's sorted out-adjacency list. The returned slice
// aliases graph storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outNeigh[g.outIndex[u]:g.outIndex[u+1]]
}

// InNeighbors returns u's sorted in-adjacency list. The returned slice
// aliases graph storage and must not be modified.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	return g.inNeigh[g.inIndex[u]:g.inIndex[u+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(u). It returns nil
// for unweighted graphs.
func (g *Graph) OutWeights(u NodeID) []Weight {
	if g.outWeight == nil {
		return nil
	}
	return g.outWeight[g.outIndex[u]:g.outIndex[u+1]]
}

// InWeights returns the weights parallel to InNeighbors(u). It returns nil
// for unweighted graphs.
func (g *Graph) InWeights(u NodeID) []Weight {
	if g.inWeight == nil {
		return nil
	}
	return g.inWeight[g.inIndex[u]:g.inIndex[u+1]]
}

// RawOut exposes the out-CSR arrays (index, neighbors). Frameworks that
// hand-tune inner loops (GKC, GAP reference) read these directly instead of
// going through the accessor methods.
func (g *Graph) RawOut() ([]int64, []NodeID) { return g.outIndex, g.outNeigh }

// RawIn exposes the in-CSR arrays (index, neighbors).
func (g *Graph) RawIn() ([]int64, []NodeID) { return g.inIndex, g.inNeigh }

// RawOutWeights exposes the weight array parallel to the out-CSR neighbor
// array, or nil for unweighted graphs.
func (g *Graph) RawOutWeights() []Weight { return g.outWeight }

// RawInWeights exposes the weight array parallel to the in-CSR neighbor
// array, or nil for unweighted graphs.
func (g *Graph) RawInWeights() []Weight { return g.inWeight }

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	w := ""
	if g.Weighted() {
		w = ", weighted"
	}
	return fmt.Sprintf("graph{%s%s, n=%d, m=%d}", kind, w, g.n, g.NumEdgesUndirected())
}
