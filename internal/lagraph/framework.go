// Package lagraph reproduces the LAGraph algorithm collection the paper
// benchmarks on top of SuiteSparse:GraphBLAS: the six GAP kernels expressed
// purely as sparse-linear-algebra operations from internal/grb. Each
// algorithm's semiring matches §III-A: any_secondi BFS, min-plus SSSP,
// FastSV CC, structural-Jacobi PR, batch Brandes BC, and the masked
// L*U' plus_pair triangle count.
package lagraph

import (
	"sync"

	"gapbench/internal/graph"
	"gapbench/internal/grb"
	"gapbench/internal/kernel"
)

// matrices is the cached GraphBLAS form of one input graph, built at load
// time like a LAGraph_Graph: the adjacency matrix, its transpose, a weighted
// copy for SSSP, and the symmetrized matrix for CC/TC.
type matrices struct {
	a      *grb.Matrix // out-adjacency, structural
	at     *grb.Matrix // in-adjacency (transpose), structural
	aw     *grb.Matrix // out-adjacency with weights
	und    *grb.Matrix // symmetrized, structural
	degree []float64   // out-degrees as float64 (PR divides by them)
}

// Framework is the SuiteSparse GraphBLAS + LAGraph reproduction.
type Framework struct {
	mu    sync.Mutex
	cache map[*graph.Graph]*matrices
}

// New returns the GraphBLAS/LAGraph framework.
func New() *Framework {
	return &Framework{cache: make(map[*graph.Graph]*matrices)}
}

// Name implements kernel.Framework.
func (*Framework) Name() string { return "SuiteSparse" }

// Attributes returns the Table II row.
func (*Framework) Attributes() map[string]string {
	return map[string]string{
		"Type":                      "high-level library",
		"Internal Graph Data":       "outgoing & incoming edges w/ (opt.) hypersparsity",
		"Programming Abstraction":   "sparse linear algebra",
		"Execution Synchronization": "level-synchronous",
		"Intended Users":            "graph/matrix domain experts",
	}
}

// Algorithms returns the Table III row.
func (*Framework) Algorithms() kernel.Algorithms {
	return kernel.Algorithms{
		BFS:  "Direction-optimizing (any_secondi)",
		SSSP: "Delta-stepping (min_plus)",
		CC:   "FastSV (min_second)",
		PR:   "Jacobi SpMV (plus_second)",
		BC:   "Brandes (plus_first)",
		TC:   "L*U' masked plus_pair",
	}
}

var (
	_ kernel.Framework = (*Framework)(nil)
	_ kernel.Describer = (*Framework)(nil)
	_ kernel.Preparer  = (*Framework)(nil)
)

// Prepare converts the graph into GraphBLAS matrices once, untimed — the
// LAGraph_Graph construction that happens when a benchmark graph is loaded.
func (f *Framework) Prepare(g *graph.Graph, undirected *graph.Graph) {
	f.matrices(g, undirected)
}

// matrices returns the cached GraphBLAS form, building it on first use.
func (f *Framework) matrices(g *graph.Graph, undirected *graph.Graph) *matrices {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.cache[g]; ok {
		return m
	}
	if undirected == nil {
		undirected = g.Undirected()
	}
	m := &matrices{
		a:  grb.FromGraph(g, false, false),
		at: grb.FromGraph(g, true, false),
		aw: grb.FromGraph(g, false, true),
	}
	if g.Directed() {
		m.und = grb.FromGraph(undirected, false, false)
	} else {
		m.und = m.a
	}
	// Indexing stays 64-bit on the GraphBLAS side (the GAP spec's index-width
	// rule, enforced by gapvet); NodeID narrows only at the graph boundary.
	m.degree = make([]float64, g.NumNodes())
	for u := range m.degree {
		m.degree[u] = float64(g.OutDegree(graph.NodeID(u)))
	}
	f.cache[g] = m
	return m
}

// BFS implements kernel.Framework.
func (f *Framework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	return f.BFSWithPolicy(g, src, opt, grb.DirAuto)
}

// BFSWithPolicy is BFS with the direction dispatch pinned (grb.DirPush /
// grb.DirPull) or freed (grb.DirAuto) — the hook the push-vs-pull crossover
// benchmarks use to measure each direction in isolation.
func (f *Framework) BFSWithPolicy(g *graph.Graph, src graph.NodeID, opt kernel.Options, policy grb.DirPolicy) []graph.NodeID {
	m := f.matrices(g, opt.UndirectedView)
	pi := bfsParents(opt.Exec(), m, grb.Index(src), policy, opt.EffectiveWorkers())
	// Export the 64-bit GraphBLAS vector into the shared 32-bit convention.
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = -1
	}
	pi.Iterate(func(i grb.Index, p int64) { out[i] = graph.NodeID(p) })
	return out
}

// SSSP implements kernel.Framework.
func (f *Framework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	m := f.matrices(g, opt.UndirectedView)
	delta := opt.Delta
	if delta <= 0 {
		delta = 16
	}
	t := deltaStepping(opt.Exec(), m.aw, grb.Index(src), delta, opt.EffectiveWorkers())
	return append([]kernel.Dist(nil), t.Dense()...)
}

// PR implements kernel.Framework.
func (f *Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	m := f.matrices(g, opt.UndirectedView)
	r := pagerank(opt.Exec(), m, opt.EffectiveWorkers())
	return append([]float64(nil), r.Dense()...)
}

// CC implements kernel.Framework.
func (f *Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	m := f.matrices(g, opt.UndirectedView)
	fvec := fastSV(opt.Exec(), m.und, opt.EffectiveWorkers())
	out := make([]graph.NodeID, g.NumNodes())
	for i, v := range fvec.Dense() {
		out[i] = graph.NodeID(v)
	}
	return out
}

// BC implements kernel.Framework.
func (f *Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	m := f.matrices(g, opt.UndirectedView)
	srcs := make([]grb.Index, len(sources))
	for i, s := range sources {
		srcs[i] = grb.Index(s)
	}
	return betweenness(opt.Exec(), m, srcs, opt.EffectiveWorkers())
}

// TC implements kernel.Framework.
func (f *Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	m := f.matrices(g, opt.UndirectedView)
	und := m.und
	// Optional heuristic-driven permutation of A before the masked multiply
	// (§III-A: "preceded by an optional permutation of A, decided by a
	// heuristic"). In Optimized mode the pre-relabeled view is free.
	if opt.Mode == kernel.Optimized && opt.RelabeledView != nil {
		und = grb.FromGraph(opt.RelabeledView, false, false)
	} else if ug := opt.Undirected(g); graph.SkewedDegrees(ug) {
		rg, _ := graph.DegreeRelabel(opt.Exec(), ug)
		und = grb.FromGraph(rg, false, false)
	}
	return triangleCount(opt.Exec(), und, opt.EffectiveWorkers())
}
