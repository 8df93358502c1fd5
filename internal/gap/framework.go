// Package gap reproduces the GAP Benchmark Suite reference implementations:
// direction-optimizing BFS, delta-stepping SSSP with bucket fusion, Jacobi
// PageRank, Afforest connected components, Brandes betweenness centrality,
// and order-invariant triangle counting with heuristic relabeling. These are
// the "100%" yardstick against which Table V expresses every other framework.
package gap

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// Framework is the GAP reference implementation suite.
type Framework struct{}

// New returns the GAP reference framework.
func New() *Framework { return &Framework{} }

// Name implements kernel.Framework.
func (*Framework) Name() string { return "GAP" }

// Attributes returns the Table II row for the GAP reference code.
func (*Framework) Attributes() map[string]string {
	return map[string]string{
		"Type":                      "direct implementations",
		"Internal Graph Data":       "outgoing & incoming edges",
		"Programming Abstraction":   "vertex-centric",
		"Execution Synchronization": "level-synchronous",
		"Intended Users":            "researchers, benchmarkers",
	}
}

// Algorithms returns the Table III row for the GAP reference code.
func (*Framework) Algorithms() kernel.Algorithms {
	return kernel.Algorithms{
		BFS:  "Direction-optimizing",
		SSSP: "Delta-stepping + bucket fusion",
		CC:   "Afforest",
		PR:   "Jacobi SpMV",
		BC:   "Brandes",
		TC:   "Order invariant + heuristic relabelling",
	}
}

var _ kernel.Framework = (*Framework)(nil)
var _ kernel.Describer = (*Framework)(nil)

// BFS implements kernel.Framework via direction-optimizing BFS.
func (*Framework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	return DOBFS(g, src, opt)
}

// SSSP implements kernel.Framework via delta-stepping with bucket fusion.
func (*Framework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	return DeltaStep(g, src, opt.SSSPDelta(), opt, true)
}

// PR implements kernel.Framework via Jacobi power iteration.
func (*Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return PageRank(g, opt)
}

// CC implements kernel.Framework via Afforest.
func (*Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return Afforest(g, opt)
}

// BC implements kernel.Framework via Brandes with level-synchronous phases.
func (*Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	return Brandes(g, sources, opt)
}

// TC implements kernel.Framework via order-invariant counting with the
// worth-relabeling heuristic.
func (*Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	return TriangleCount(g, opt)
}
