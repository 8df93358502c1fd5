package ldbc_test

import (
	"math"
	"testing"
	"testing/quick"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/ldbc"
	"gapbench/internal/verify"
)

func build(t *testing.T, edges []graph.Edge, n int32, directed bool) *graph.Graph {
	t.Helper()
	g, err := graph.Build(edges, graph.BuildOptions{NumNodes: n, Directed: directed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCDLPTwoCliques(t *testing.T) {
	// Two 4-cliques joined by one bridge edge: two communities emerge.
	var edges []graph.Edge
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{U: i, V: j}, graph.Edge{U: i + 4, V: j + 4})
		}
	}
	edges = append(edges, graph.Edge{U: 3, V: 4})
	g := build(t, edges, 8, false)
	labels := ldbc.CDLP(g, 10, 2)
	for v := int32(1); v < 4; v++ {
		if labels[v] != labels[0] {
			t.Fatalf("clique 1 split: %v", labels)
		}
	}
	for v := int32(5); v < 8; v++ {
		if labels[v] != labels[4] {
			t.Fatalf("clique 2 split: %v", labels)
		}
	}
	if labels[0] == labels[4] {
		t.Fatalf("cliques merged: %v", labels)
	}
	sizes := ldbc.CommunitySizes(labels)
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("community sizes = %v", sizes)
	}
}

func TestCDLPDeterministicAcrossWorkers(t *testing.T) {
	g, err := generate.Twitter(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := ldbc.CDLP(g, 5, 1)
	b := ldbc.CDLP(g, 5, 4)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("labels differ at %d: synchronous CDLP must be deterministic", v)
		}
	}
}

func TestCDLPIsolatedAndEmpty(t *testing.T) {
	g := build(t, nil, 3, false)
	labels := ldbc.CDLP(g, 5, 2)
	for v, l := range labels {
		if l != graph.NodeID(v) {
			t.Fatalf("isolated vertex %d changed label to %d", v, l)
		}
	}
	empty := build(t, nil, 0, false)
	if got := ldbc.CDLP(empty, 5, 2); len(got) != 0 {
		t.Fatal("empty graph produced labels")
	}
}

func TestLCCKnownValues(t *testing.T) {
	// Triangle with a pendant: vertices 0,1 have neighbors {1,2}/{0,2}
	// fully linked (LCC 1); vertex 2 has neighbors {0,1,3} with one link of
	// three possible (LCC 1/3); pendant 3 scores 0.
	g := build(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}}, 4, false)
	lcc := ldbc.LCC(g, 2)
	want := []float64{1, 1, 1.0 / 3, 0}
	for v, w := range want {
		if math.Abs(lcc[v]-w) > 1e-12 {
			t.Fatalf("lcc[%d] = %v, want %v", v, lcc[v], w)
		}
	}
}

func TestLCCCliqueIsAllOnes(t *testing.T) {
	var edges []graph.Edge
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g := build(t, edges, 6, false)
	for v, s := range ldbc.LCC(g, 3) {
		if s != 1 {
			t.Fatalf("clique lcc[%d] = %v", v, s)
		}
	}
}

// Property: the sum of LCC numerators equals 3x triangle count relation:
// sum over v of lcc[v]*C(deg,2) counts each triangle exactly 3 times.
func TestLCCTriangleIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := generate.Kron(6, seed)
		if err != nil {
			return false
		}
		u := g.Undirected()
		lcc := ldbc.LCC(u, 2)
		var weighted float64
		for v, s := range lcc {
			d := float64(u.OutDegree(graph.NodeID(v)))
			weighted += s * d * (d - 1) / 2
		}
		return math.Abs(weighted-3*float64(verify.Triangles(u))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g, err := generate.Web(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	ls, lp := ldbc.CDLPSerial(g, 6), ldbc.CDLP(g, 6, 4)
	for v := range ls {
		if ls[v] != lp[v] {
			t.Fatalf("CDLP parallel/serial differ at %d", v)
		}
	}
	ss, sp := ldbc.LCCSerial(g), ldbc.LCC(g, 4)
	for v := range ss {
		if math.Abs(ss[v]-sp[v]) > 1e-12 {
			t.Fatalf("LCC parallel/serial differ at %d", v)
		}
	}
}

func TestWebMoreClusteredThanUrand(t *testing.T) {
	// The Web generator's host locality must show up as clustering well
	// above the Erdős–Rényi baseline — the §V-D "Web had good locality"
	// signature.
	web, err := generate.Web(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := generate.Urand(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Both graphs have 2^10 vertices, so the sums compare as the means do.
	var cw, cu float64
	for _, s := range ldbc.LCC(web, 2) {
		cw += s
	}
	for _, s := range ldbc.LCC(ur, 2) {
		cu += s
	}
	if cw < 3*cu {
		t.Fatalf("web clustering sum %.4f not well above urand %.4f", cw, cu)
	}
}
