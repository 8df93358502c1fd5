// Package lagraph reproduces the LAGraph algorithm collection the paper
// benchmarks on top of SuiteSparse:GraphBLAS: the six GAP kernels expressed
// purely as sparse-linear-algebra operations from internal/grb. Each
// algorithm's semiring matches §III-A: any_secondi BFS, min-plus SSSP,
// FastSV CC, structural-Jacobi PR, batch Brandes BC, and the masked
// L*U' plus_pair triangle count.
package lagraph

import (
	"gapbench/internal/graph"
	"gapbench/internal/grb"
	"gapbench/internal/kernel"
)

// matrices is the GraphBLAS form of one view of an input graph, built at
// load time like a LAGraph_Graph: the adjacency matrix, its transpose, a
// weighted copy for SSSP, and the symmetrized matrix for CC/TC. g and u are
// the views it was converted from; a view only TC reads (the relabeled view)
// has g nil and only und.
type matrices struct {
	g, u   *graph.Graph
	a      *grb.Matrix // out-adjacency, structural
	at     *grb.Matrix // in-adjacency (transpose), structural
	aw     *grb.Matrix // out-adjacency with weights
	und    *grb.Matrix // symmetrized, structural
	degree []float64   // out-degrees as float64 (PR divides by them)
}

// Framework is the SuiteSparse GraphBLAS + LAGraph reproduction. It holds no
// per-graph state: the input it was prepared from owns the matrices.
type Framework struct{}

// New returns the GraphBLAS/LAGraph framework.
func New() *Framework { return &Framework{} }

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

// Prepare converts a view into GraphBLAS matrices, untimed — the
// LAGraph_Graph construction that happens when a benchmark graph is loaded.
// For a view only TC reads (g nil) it converts the undirected form alone.
func (*Framework) Prepare(g, undirected *graph.Graph) any {
	if g == nil {
		return &matrices{u: undirected, und: grb.FromGraph(undirected, false, false)}
	}
	return convert(g, undirected)
}

// matricesFor returns the matrices opt carries for g, converting g inside the
// timed region when it carries none.
func matricesFor(g *graph.Graph, opt kernel.Options) *matrices {
	if m, ok := opt.Prepared.(*matrices); ok && m.g == g {
		return m
	}
	return convert(g, opt.Undirected(g))
}

// convert builds the GraphBLAS form of g and its undirected view.
func convert(g, undirected *graph.Graph) *matrices {
	m := &matrices{
		g:  g,
		u:  undirected,
		a:  grb.FromGraph(g, false, false),
		aw: grb.FromGraph(g, false, true),
	}
	// An undirected graph's matrix is symmetric: like LAGraph, which caches
	// no G->AT for one, its transpose and symmetrized forms are A itself.
	m.at, m.und = m.a, m.a
	if g.Directed() {
		m.at = grb.FromGraph(g, true, false)
		m.und = grb.FromGraph(undirected, false, false)
	}
	// Indexing stays 64-bit on the GraphBLAS side (the GAP spec's index-width
	// rule, enforced by gapvet); NodeID narrows only at the graph boundary.
	m.degree = make([]float64, g.NumNodes())
	for u := range m.degree {
		m.degree[u] = float64(g.OutDegree(graph.NodeID(u)))
	}
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
	m := matricesFor(g, opt)
	pi := bfsParents(opt.Exec(), m, grb.Index(src), policy)
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
	m := matricesFor(g, opt)
	t := deltaStepping(opt.Exec(), m.aw, grb.Index(src), opt.SSSPDelta())
	return append([]kernel.Dist(nil), t.Dense()...)
}

// PR implements kernel.Framework.
func (f *Framework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	m := matricesFor(g, opt)
	r := pagerank(opt.Exec(), m)
	return append([]float64(nil), r.Dense()...)
}

// CC implements kernel.Framework.
func (f *Framework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	m := matricesFor(g, opt)
	fvec := fastSV(opt.Exec(), m.und)
	out := make([]graph.NodeID, g.NumNodes())
	for i, v := range fvec.Dense() {
		out[i] = graph.NodeID(v)
	}
	return out
}

// BC implements kernel.Framework.
func (f *Framework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	m := matricesFor(g, opt)
	srcs := make([]grb.Index, len(sources))
	for i, s := range sources {
		srcs[i] = grb.Index(s)
	}
	return betweenness(opt.Exec(), m, srcs)
}

// TC implements kernel.Framework.
func (*Framework) TC(g *graph.Graph, opt kernel.Options) int64 {
	// Optional heuristic-driven permutation of A before the masked multiply
	// (§III-A: "preceded by an optional permutation of A, decided by a
	// heuristic"). In Optimized mode the pre-relabeled view and its matrix
	// are free: both are built untimed, and the cell carries the matrix. A
	// view relabeled inside the trial is converted inside it too.
	view := opt.TCView(g)
	if m, ok := opt.Prepared.(*matrices); ok && m.u == view {
		return triangleCount(opt.Exec(), m.und)
	}
	return triangleCount(opt.Exec(), grb.FromGraph(view, false, false))
}
