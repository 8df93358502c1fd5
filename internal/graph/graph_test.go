package graph_test

import (
	"testing"

	"gapbench/internal/graph"
)

func mustBuild(t *testing.T, edges []graph.Edge, opt graph.BuildOptions) *graph.Graph {
	t.Helper()
	g, err := graph.Build(edges, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildDirectedBasics(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 1}}, graph.BuildOptions{Directed: true})
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.Directed() {
		t.Fatal("Directed() = false")
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v, want [1 2]", got)
	}
	if got := g.InNeighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("InNeighbors(1) = %v, want [0 2]", got)
	}
	if g.OutDegree(1) != 0 || g.InDegree(0) != 0 {
		t.Fatal("degrees of sink/source vertices wrong")
	}
}

func TestBuildUndirectedSymmetry(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Directed: false})
	if g.NumEdges() != 4 {
		t.Fatalf("stored directed entries = %d, want 4", g.NumEdges())
	}
	if g.NumEdgesUndirected() != 2 {
		t.Fatalf("undirected edges = %d, want 2", g.NumEdgesUndirected())
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			found := false
			for _, w := range g.OutNeighbors(v) {
				if w == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", u, v)
			}
		}
	}
}

func TestBuildDeduplicatesAndSorts(t *testing.T) {
	g := mustBuild(t, []graph.Edge{
		{U: 0, V: 2}, {U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 1}, {U: 0, V: 3},
	}, graph.BuildOptions{Directed: true})
	got := g.OutNeighbors(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("OutNeighbors(0) = %v, want sorted dedup [1 2 3]", got)
	}
}

func TestBuildDropsSelfLoopsByDefault(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}}, graph.BuildOptions{Directed: true})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (self loop dropped)", g.NumEdges())
	}
	g2, err := graph.Build([]graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}}, graph.BuildOptions{Directed: true, KeepSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (self loop kept)", g2.NumEdges())
	}
}

func TestBuildWeightedKeepsMinDuplicate(t *testing.T) {
	g, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 9}, {U: 0, V: 1, W: 3}, {U: 0, V: 1, W: 7},
	}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if ws := g.OutWeights(0); len(ws) != 1 || ws[0] != 3 {
		t.Fatalf("weights = %v, want [3]", ws)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := graph.Build([]graph.Edge{{U: -1, V: 0}}, graph.BuildOptions{}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := graph.Build([]graph.Edge{{U: 0, V: 5}}, graph.BuildOptions{NumNodes: 3}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestBuildEmptyAndIsolated(t *testing.T) {
	g := mustBuild(t, nil, graph.BuildOptions{NumNodes: 4, Directed: false})
	if g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	for u := int32(0); u < 4; u++ {
		if len(g.OutNeighbors(u)) != 0 {
			t.Fatalf("vertex %d has neighbors in empty graph", u)
		}
	}
	empty := mustBuild(t, nil, graph.BuildOptions{})
	if empty.NumNodes() != 0 {
		t.Fatalf("zero-vertex graph has n=%d", empty.NumNodes())
	}
}

func TestUndirectedView(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 1}}, graph.BuildOptions{Directed: true})
	u := g.Undirected()
	if u.Directed() {
		t.Fatal("Undirected() returned a directed graph")
	}
	if u.NumEdgesUndirected() != 2 {
		t.Fatalf("undirected edges = %d, want 2", u.NumEdgesUndirected())
	}
	if got := u.OutNeighbors(1); len(got) != 2 {
		t.Fatalf("vertex 1 neighbors = %v, want two", got)
	}
	// Undirected of undirected is identity.
	if u.Undirected() != u {
		t.Fatal("Undirected() of undirected graph should return the same graph")
	}
}

func TestDegreeRelabel(t *testing.T) {
	// Star: vertex 3 is the hub and must become vertex 0.
	g := mustBuild(t, []graph.Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}, {U: 0, V: 1}},
		graph.BuildOptions{Directed: false})
	rg, perm := graph.DegreeRelabel(nil, g)
	if perm[3] != 0 {
		t.Fatalf("hub mapped to %d, want 0", perm[3])
	}
	if rg.OutDegree(0) != g.OutDegree(3) {
		t.Fatalf("hub degree changed: %d vs %d", rg.OutDegree(0), g.OutDegree(3))
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", rg.NumEdges(), g.NumEdges())
	}
	// Adjacency stays sorted after permutation.
	for u := int32(0); u < rg.NumNodes(); u++ {
		neigh := rg.OutNeighbors(u)
		for i := 1; i < len(neigh); i++ {
			if neigh[i-1] >= neigh[i] {
				t.Fatalf("row %d unsorted: %v", u, neigh)
			}
		}
	}
}
