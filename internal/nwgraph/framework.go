package nwgraph

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// Framework is the NWGraph reproduction.
type Framework struct{}

// New returns the NWGraph framework.
func New() *Framework { return &Framework{} }

// Name implements kernel.Framework.
func (*Framework) Name() string { return "NWGraph" }

// Attributes returns the Table II row.
func (*Framework) Attributes() map[string]string {
	return map[string]string{
		"Type":                      "header-only library",
		"Internal Graph Data":       "adjacency list as range of ranges",
		"Programming Abstraction":   "range-centric w/ tuple edge properties",
		"Execution Synchronization": "algorithm-specific, level-synchronous",
		"Intended Users":            "practicing C++ programmers",
	}
}

// Algorithms returns the Table III row.
func (*Framework) Algorithms() kernel.Algorithms {
	return kernel.Algorithms{
		BFS:  "Direction-optimizing (simple switch)",
		SSSP: "Delta-stepping",
		CC:   "Afforest",
		PR:   "Gauss-Seidel SpMV",
		BC:   "Brandes (no direction opt)",
		TC:   "Order invariant (cyclic rows)",
	}
}

var (
	_ kernel.Framework = (*Framework)(nil)
	_ kernel.Describer = (*Framework)(nil)
)

// BFS implements kernel.Framework.
func (*Framework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	return BFS(opt.Exec(), NewCSR(g), src)
}

// SSSP implements kernel.Framework.
func (*Framework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	return SSSP(opt.Exec(), NewCSR(g), src, opt.SSSPDelta())
}

// PR implements kernel.Framework.
func (*Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return PR(opt.Exec(), NewCSR(g))
}

// CC implements kernel.Framework.
func (*Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return CC(opt.Exec(), NewCSR(g), g.Directed())
}

// BC implements kernel.Framework.
func (*Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	return BC(opt.Exec(), NewCSR(g), sources)
}

// TC implements kernel.Framework.
func (*Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	return TC(opt.Exec(), NewCSR(opt.TCView(g)))
}
