package graphit

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// Framework is the GraphIt reproduction.
type Framework struct {
	// Schedules is the persistent tuned-schedule store written by `gapbench
	// -tune` (nil when none is attached). Optimized-mode kernels consult it,
	// keyed by (kernel, graph Epoch, mode) — the cross-process form of the
	// paper's Optimized-rule-set tuning; Baseline runs never read it.
	Schedules *Store
}

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
func (f *Framework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	return bfs(opt.Exec(), g, src, f.scheduleFor("bfs", g, opt), opt.EffectiveWorkers())
}

// SSSP implements kernel.Framework.
func (f *Framework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	delta := opt.Delta
	if delta <= 0 {
		delta = 16
	}
	return sssp(opt.Exec(), g, src, delta, f.scheduleFor("sssp", g, opt), opt.EffectiveWorkers())
}

// PR implements kernel.Framework.
func (f *Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return pr(opt.Exec(), g, f.scheduleFor("pr", g, opt), opt.EffectiveWorkers())
}

// CC implements kernel.Framework.
func (f *Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return cc(opt.Exec(), g, f.scheduleFor("cc", g, opt), opt.EffectiveWorkers())
}

// BC implements kernel.Framework.
func (f *Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	return bc(opt.Exec(), g, sources, f.scheduleFor("bc", g, opt), opt.EffectiveWorkers())
}

// TC implements kernel.Framework.
func (*Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	return tc(opt.Exec(), g, opt, opt.EffectiveWorkers())
}
