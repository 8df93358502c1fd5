package nwgraph_test

import (
	"sort"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/nwgraph"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

// mapAdjacency is a deliberately non-CSR graph type — the "data types around
// which they have already structured their applications" of §III-C. It
// satisfies the NWGraph concepts with sorted map-backed adjacency and no
// contiguous-slice fast paths, so the generic kernels run through the pure
// iterator interface.
type mapAdjacency struct {
	n   int
	out map[nwgraph.Vertex][]weightedEdge
	in  map[nwgraph.Vertex][]nwgraph.Vertex
}

type weightedEdge struct {
	to nwgraph.Vertex
	w  int32
}

func newMapAdjacency(g *graph.Graph) *mapAdjacency {
	m := &mapAdjacency{
		n:   int(g.NumNodes()),
		out: map[nwgraph.Vertex][]weightedEdge{},
		in:  map[nwgraph.Vertex][]nwgraph.Vertex{},
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		ws := g.OutWeights(u)
		for i, v := range g.OutNeighbors(u) {
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			m.out[u] = append(m.out[u], weightedEdge{v, w})
			m.in[v] = append(m.in[v], u)
		}
	}
	for _, edges := range m.out {
		sort.Slice(edges, func(i, j int) bool { return edges[i].to < edges[j].to })
	}
	for _, ins := range m.in {
		sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	}
	return m
}

func (m *mapAdjacency) NumVertices() int            { return m.n }
func (m *mapAdjacency) Degree(u nwgraph.Vertex) int { return len(m.out[u]) }
func (m *mapAdjacency) Neighbors(u nwgraph.Vertex, yield func(nwgraph.Vertex) bool) {
	for _, e := range m.out[u] {
		if !yield(e.to) {
			return
		}
	}
}
func (m *mapAdjacency) InNeighbors(u nwgraph.Vertex, yield func(nwgraph.Vertex) bool) {
	for _, v := range m.in[u] {
		if !yield(v) {
			return
		}
	}
}
func (m *mapAdjacency) WeightedNeighbors(u nwgraph.Vertex, yield func(nwgraph.Vertex, int32) bool) {
	for _, e := range m.out[u] {
		if !yield(e.to, e.w) {
			return
		}
	}
}

// TestGenericKernelsOnMapAdjacency is the genericity claim made executable:
// every NWGraph kernel runs unchanged over a map-backed adjacency and
// produces oracle-correct results.
func TestGenericKernelsOnMapAdjacency(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Kron(8, 13)
	if err != nil {
		t.Fatal(err)
	}
	m := newMapAdjacency(g)
	src := graph.NodeID(0)
	for g.OutDegree(src) == 0 {
		src++
	}

	if err := verify.CheckBFS(g, src, nwgraph.BFS(par.Default(), m, src, 2)); err != nil {
		t.Errorf("BFS: %v", err)
	}
	if err := verify.CheckSSSP(g, src, nwgraph.SSSP(par.Default(), m, src, 16, 2)); err != nil {
		t.Errorf("SSSP: %v", err)
	}
	if err := verify.CheckPR(g, nwgraph.PR(par.Default(), m, 2)); err != nil {
		t.Errorf("PR: %v", err)
	}
	if err := verify.CheckCC(g, nwgraph.CC(par.Default(), m, g.Directed(), 2)); err != nil {
		t.Errorf("CC: %v", err)
	}
	roots := []graph.NodeID{src}
	if err := verify.CheckBC(g, roots, nwgraph.BC(par.Default(), m, roots, 2)); err != nil {
		t.Errorf("BC: %v", err)
	}
	// TC requires the undirected view; Kron is already undirected.
	if err := verify.CheckTC(g, nwgraph.TC(par.Default(), m, 2)); err != nil {
		t.Errorf("TC: %v", err)
	}
}

// TestCSRAndMapAgree cross-validates the two adjacency types against each
// other directly.
func TestCSRAndMapAgree(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Urand(7, 21)
	if err != nil {
		t.Fatal(err)
	}
	csr := nwgraph.NewCSR(g)
	m := newMapAdjacency(g)
	if got, want := nwgraph.TC(par.Default(), m, 2), nwgraph.TC(par.Default(), csr, 2); got != want {
		t.Fatalf("TC disagrees: map %d vs csr %d", got, want)
	}
	dm := nwgraph.SSSP(par.Default(), m, 0, 16, 2)
	dc := nwgraph.SSSP(par.Default(), csr, 0, 16, 2)
	for v := range dm {
		if dm[v] != dc[v] {
			t.Fatalf("SSSP disagrees at %d: %d vs %d", v, dm[v], dc[v])
		}
	}
}

func TestConceptsCompileTimeConformance(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var _ nwgraph.AdjacencyList = (*mapAdjacency)(nil)
	var _ nwgraph.BidirectionalAdjacency = (*mapAdjacency)(nil)
	var _ nwgraph.WeightedAdjacency = (*mapAdjacency)(nil)
	var _ nwgraph.AdjacencyList = (*nwgraph.CSR)(nil)
	var _ nwgraph.BidirectionalAdjacency = (*nwgraph.CSR)(nil)
	var _ nwgraph.WeightedAdjacency = (*nwgraph.CSR)(nil)
	_ = kernel.Options{}
}
