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
		perm := make([]graph.NodeID, n)
		for i, p := range rng.Perm(int(n)) {
			perm[i] = graph.NodeID(p)
		}
		renamed := make([]graph.WEdge, len(edges))
		for i, e := range edges {
			renamed[i] = graph.WEdge{U: perm[e.U], V: perm[e.V], W: e.W}
		}
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
		src.Seal() // armed under -tags=graphguard: the permute only reads its source
		got := graph.ApplyPermutation(src, perm)
		if err := src.CheckSeal(); err != nil {
			t.Fatalf("%s: %v", kind.name, err)
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
		ordered, _ := graph.DegreeRelabel(g)
		again, perm := graph.DegreeRelabel(ordered)
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
		rg, perm := graph.DegreeRelabel(empty)
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
			rg, perm := graph.DegreeRelabel(one)
			if !slices.Equal(perm, []graph.NodeID{0}) {
				t.Fatalf("n=1: perm = %v", perm)
			}
			assertSameCSR(t, "n=1", rg, one)
			assertSameCSR(t, "n=1 ApplyPermutation", graph.ApplyPermutation(one, perm), one)
		}
	}
}
