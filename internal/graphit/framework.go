package graphit

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// Framework is the GraphIt reproduction.
type Framework struct{}

// New returns the GraphIt framework.
func New() *Framework { return &Framework{} }

// Name implements kernel.Framework.
func (*Framework) Name() string { return "GraphIt" }

// Attributes returns the Table II row.
func (*Framework) Attributes() map[string]string {
	return map[string]string{
		"Type":                      "domain-specific language compiler",
		"Internal Graph Data":       "outgoing & incoming edges w/ (opt.) blocking",
		"Programming Abstraction":   "vertex or edge centric",
		"Execution Synchronization": "level-synchronous",
		"Intended Users":            "graph domain experts",
	}
}

// Algorithms returns the Table III row.
func (*Framework) Algorithms() kernel.Algorithms {
	return kernel.Algorithms{
		BFS:  "Direction-optimizing",
		SSSP: "Delta-stepping + bucket fusion",
		CC:   "Label Propagation",
		PR:   "Jacobi SpMV (+cache tiling)",
		BC:   "Brandes (bitvector frontier)",
		TC:   "Order invariant",
	}
}

var (
	_ kernel.Framework = (*Framework)(nil)
	_ kernel.Describer = (*Framework)(nil)
)

// BFS implements kernel.Framework.
func (*Framework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	return bfs(opt.Exec(), g, src, scheduleFor("bfs", g, opt))
}

// SSSP implements kernel.Framework.
func (*Framework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	return sssp(opt.Exec(), g, src, opt.SSSPDelta())
}

// PR implements kernel.Framework.
func (*Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return pr(opt.Exec(), g, scheduleFor("pr", g, opt))
}

// CC implements kernel.Framework.
func (*Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return cc(opt.Exec(), g, scheduleFor("cc", g, opt))
}

// BC implements kernel.Framework.
func (*Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	return bc(opt.Exec(), g, sources, scheduleFor("bc", g, opt))
}

// TC implements kernel.Framework.
func (*Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	return tc(opt.Exec(), g, opt)
}
