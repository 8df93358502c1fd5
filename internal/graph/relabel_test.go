package graph_test

// relabel_test.go: the sort-free permute against the builder. Renaming a
// graph's vertices must give exactly the graph the builder makes from the
// renamed edge list — the permute fills rows by a cursor scatter through the
// opposite CSR side and never sorts, so these tests are what says its rows
// still come out canonical.

import (
	"math/rand"
	"slices"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// assertSameCSR requires the two graphs' six CSR arrays to be identical, by
// handing want's arrays to the builder tests' assertCSREqual.
func assertSameCSR(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.Directed() != want.Directed() {
		t.Fatalf("%s: directed = %v, want %v", label, got.Directed(), want.Directed())
	}
	ref := &refGraph{n: want.NumNodes(), outWeight: want.RawOutWeights(), inWeight: want.RawInWeights()}
	ref.outIndex, ref.outNeigh = want.RawOut()
	ref.inIndex, ref.inNeigh = want.RawIn()
	assertCSREqual(t, label, got, ref, want.Weighted())
}

// assertCanonicalCSR checks the two invariants every kernel leans on,
// directly rather than through equality with a built graph: each row on
// either side is strictly increasing, and the in-side is the transpose of the
// out-side with every weight still on its edge.
func assertCanonicalCSR(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	var inEdges int64
	for u := graph.NodeID(0); u < g.NumNodes(); u++ {
		for _, row := range [][]graph.NodeID{g.OutNeighbors(u), g.InNeighbors(u)} {
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					t.Fatalf("%s: a row of vertex %d is not strictly increasing: %v", label, u, row)
				}
			}
		}
		inEdges += g.InDegree(u)
		for i, v := range g.OutNeighbors(u) {
			j, found := slices.BinarySearch(g.InNeighbors(v), u)
			if !found {
				t.Fatalf("%s: edge %d->%d is missing from the in-side", label, u, v)
			}
			if g.Weighted() && g.OutWeights(u)[i] != g.InWeights(v)[j] {
				t.Fatalf("%s: edge %d->%d weighs %d on the out-side, %d on the in-side",
					label, u, v, g.OutWeights(u)[i], g.InWeights(v)[j])
			}
		}
	}
	if inEdges != g.NumEdges() {
		t.Fatalf("%s: in-side holds %d edges, out-side %d", label, inEdges, g.NumEdges())
	}
}

// TestApplyPermutationMatchesRenamedBuild drives applyPermutation the only
// way the package does, through DegreeRelabel: the relabelled graph must equal
// the build of the edge list renamed by the permutation it returns.
func TestApplyPermutationMatchesRenamedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(0x17c5))
	kinds := []struct {
		name               string
		directed, weighted bool
	}{
		{"directed weighted", true, true},
		{"directed unweighted", true, false},
		{"undirected weighted", false, true},
	}
	for trial := 0; trial < 30; trial++ {
		kind := kinds[trial%len(kinds)]
		n := int32(1 + rng.Int31n(120))
		edges := randomEdges(rng, n, rng.Intn(8*int(n)))
		opt := graph.BuildOptions{NumNodes: n, Directed: kind.directed, KeepSelfLoops: trial%2 == 0}
		build := func(edges []graph.WEdge) *graph.Graph {
			t.Helper()
			if kind.weighted {
				g, err := graph.BuildWeighted(edges, opt)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			return mustBuild(t, edgesOnly(edges), opt)
		}
		src := build(edges)
		src.Seal() // armed under -tags=check: the permute only reads its source
		got, perm := graph.DegreeRelabel(par.Default(), src)
		if err := src.CheckSeal(); err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		renamed := make([]graph.WEdge, len(edges))
		for i, e := range edges {
			renamed[i] = graph.WEdge{U: perm[e.U], V: perm[e.V], W: e.W}
		}
		assertSameCSR(t, kind.name, got, build(renamed))
		assertCanonicalCSR(t, kind.name, got)
	}
}

func TestDegreeRelabelOfDegreeOrderedGraphIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1de7))
	for _, directed := range []bool{true, false} {
		n := int32(150)
		g, err := graph.BuildWeighted(randomEdges(rng, n, 5*int(n)), graph.BuildOptions{NumNodes: n, Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		ordered, _ := graph.DegreeRelabel(par.Default(), g)
		again, perm := graph.DegreeRelabel(par.Default(), ordered)
		for old, nw := range perm {
			if nw != graph.NodeID(old) {
				t.Fatalf("directed=%v: vertex %d of a degree-ordered graph moved to %d", directed, old, nw)
			}
		}
		assertSameCSR(t, "second relabel", again, ordered)
		assertCanonicalCSR(t, "first relabel", ordered)
	}
}

func TestRelabelDegenerateGraphs(t *testing.T) {
	for _, directed := range []bool{true, false} {
		empty := mustBuild(t, nil, graph.BuildOptions{Directed: directed})
		if empty.NumNodes() != 0 {
			t.Fatalf("empty build has %d vertices", empty.NumNodes())
		}
		rg, perm := graph.DegreeRelabel(par.Default(), empty)
		if len(perm) != 0 {
			t.Fatalf("n=0: perm = %v", perm)
		}
		assertSameCSR(t, "n=0", rg, empty)

		for _, loop := range []bool{false, true} {
			var edges []graph.Edge
			if loop {
				edges = []graph.Edge{{U: 0, V: 0}}
			}
			one := mustBuild(t, edges, graph.BuildOptions{NumNodes: 1, Directed: directed, KeepSelfLoops: true})
			rg, perm := graph.DegreeRelabel(par.Default(), one)
			if !slices.Equal(perm, []graph.NodeID{0}) {
				t.Fatalf("n=1: perm = %v", perm)
			}
			assertSameCSR(t, "n=1", rg, one)
		}
	}
}

// skewedGraph is an undirected graph with a hub (vertex 0 touches everyone)
// over a sparse random remainder, so the degree histogram is wide.
func skewedGraph(t *testing.T, n int32) *graph.Graph {
	t.Helper()
	edges := edgesOnly(randomEdges(rand.New(rand.NewSource(0x5cede)), n, 3*int(n)))
	for v := graph.NodeID(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v})
	}
	return mustBuild(t, edges, graph.BuildOptions{NumNodes: n})
}

// TestDegreeRelabelRunsOnItsMachine: the relabel's parallel regions belong
// to the executor it is handed — the trial's machine when a kernel relabels
// inside its timed region — and not to the process default.
func TestDegreeRelabelRunsOnItsMachine(t *testing.T) {
	g := skewedGraph(t, 600)
	m := par.NewMachine(4)
	defer m.Close()
	before := par.Default().Stats()
	rg, _ := graph.DegreeRelabel(m, g)
	if got := m.Stats().Regions; got == 0 {
		t.Fatal("no region ran on the machine the relabel was given")
	}
	if after := par.Default().Stats(); after != before {
		t.Fatalf("the relabel moved the default machine's stats: %+v -> %+v", before, after)
	}
	want, _ := graph.DegreeRelabel(par.Default(), g)
	assertSameCSR(t, "private machine vs default", rg, want)
}

// TestDegreeRelabelOnCancelledMachine: a fired token makes the machine skip
// region bodies; the relabel must hand back its input (the trial's result is
// discarded) instead of permuting by half-written counts.
func TestDegreeRelabelOnCancelledMachine(t *testing.T) {
	g := skewedGraph(t, 600)
	for _, width := range []int{1, 4} {
		m := par.NewMachine(width)
		tok := par.NewCancelToken()
		tok.Cancel()
		m.SetCancel(tok)
		if rg, _ := graph.DegreeRelabel(m, g); rg != g {
			t.Errorf("width %d: a cancelled relabel rebuilt the graph", width)
		}
		m.Close()
	}
}
