// Package gkc reproduces the Graph Kernel Collection: hand-tuned black-box
// kernels built the way §III-E describes — per-thread local buffers sized to
// stay cache-resident and flushed in bulk to reduce false sharing, unrolled
// "SIMD-like" inner loops standing in for the AVX intrinsics and inline
// assembly of the original, and heuristics that skip tuning overheads
// (relabeling, parallel fan-out) when the graph is too small or too uniform
// to pay for them. The last point is why GKC shines on Road (§VI: "Road
// benefits from GKC's algorithm because of its small size, resulting in
// higher cache-reuse").
package gkc

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// localBufferSize is the per-thread buffer capacity, sized like GKC sizes
// its buffers to the L2 cache (§III-E: "Local buffers are sized according to
// either the L1 or L2 cache sizes").
const localBufferSize = 4096

// serialThreshold is the frontier size below which kernels run the level
// serially: with only a handful of active vertices, the fork-join fan-out
// costs more than the work (the hand-tuned advantage on Road's thousands of
// tiny frontiers).
const serialThreshold = 512

// Framework is the GKC reproduction.
type Framework struct{}

// New returns the GKC framework.
func New() *Framework { return &Framework{} }

// Name implements kernel.Framework.
func (*Framework) Name() string { return "GKC" }

// Attributes returns the Table II row.
func (*Framework) Attributes() map[string]string {
	return map[string]string{
		"Type":                      "direct implementations",
		"Internal Graph Data":       "outgoing & (opt.) incoming edges",
		"Programming Abstraction":   "arbitrary",
		"Execution Synchronization": "algorithm-specific, level-synchronous",
		"Intended Users":            "application developers",
	}
}

// Algorithms returns the Table III row.
func (*Framework) Algorithms() kernel.Algorithms {
	return kernel.Algorithms{
		BFS:  "Direction-optimizing (local buffers, SIMD)",
		SSSP: "Delta-stepping (SIMD)",
		CC:   "Shiloach-Vishkin Hybrid",
		PR:   "Gauss-Seidel SpMV (SIMD)",
		BC:   "Brandes",
		TC:   "Lee & Low (SIMD set intersection, relabel heuristic)",
	}
}

var (
	_ kernel.Framework = (*Framework)(nil)
	_ kernel.Describer = (*Framework)(nil)
)

// BFS implements kernel.Framework.
func (*Framework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	return bfs(opt.Exec(), g, src)
}

// SSSP implements kernel.Framework.
func (*Framework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	return sssp(opt.Exec(), g, src, opt.SSSPDelta())
}

// PR implements kernel.Framework.
func (*Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return pagerank(opt.Exec(), g)
}

// CC implements kernel.Framework.
func (*Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return hybridSV(opt.Exec(), g)
}

// BC implements kernel.Framework.
func (*Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	return brandes(opt.Exec(), g, sources)
}

// TC implements kernel.Framework.
func (*Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	u := opt.Undirected(g)
	// Size/degree heuristic (§VI: "the overheads of sorting and using SIMD
	// are avoided due to the heuristics. Further, Road benefits from GKC's
	// algorithm because of its small size"): sparse graphs skip relabeling,
	// the forward-index build, and the SIMD machinery entirely.
	if u.NumEdges() < 8*int64(u.NumNodes()) {
		return serialPrefixTC(u)
	}
	// §V-F: "GKC sorts vertices depending on degree skewness".
	return leeLowTC(opt.Exec(), opt.TCView(g))
}
