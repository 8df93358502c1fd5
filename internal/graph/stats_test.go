package graph_test

import (
	"testing"

	"gapbench/internal/graph"
)

func TestApproxDiameterPath(t *testing.T) {
	// Path of 10 vertices: diameter exactly 9.
	var edges []graph.Edge
	for i := int32(0); i < 9; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	g := mustBuild(t, edges, graph.BuildOptions{Directed: false})
	if d := graph.ApproxDiameter(g, 4); d != 9 {
		t.Fatalf("path diameter = %d, want 9", d)
	}
}

func TestApproxDiameterStarAndClique(t *testing.T) {
	var star []graph.Edge
	for i := int32(1); i < 8; i++ {
		star = append(star, graph.Edge{U: 0, V: i})
	}
	g := mustBuild(t, star, graph.BuildOptions{Directed: false})
	if d := graph.ApproxDiameter(g, 4); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
	var clique []graph.Edge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			clique = append(clique, graph.Edge{U: i, V: j})
		}
	}
	k := mustBuild(t, clique, graph.BuildOptions{Directed: false})
	if d := graph.ApproxDiameter(k, 4); d != 1 {
		t.Fatalf("clique diameter = %d, want 1", d)
	}
}

func TestApproxDiameterDirectedUsesBothDirections(t *testing.T) {
	// Directed path 0->1->2: undirected-sense diameter is 2 even though
	// nothing reaches 0 along edges.
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if d := graph.ApproxDiameter(g, 4); d != 2 {
		t.Fatalf("directed path diameter = %d, want 2", d)
	}
}

func TestClassifyDegreesClasses(t *testing.T) {
	// Bounded: a cycle (every degree 2).
	var cycle []graph.Edge
	for i := int32(0); i < 100; i++ {
		cycle = append(cycle, graph.Edge{U: i, V: (i + 1) % 100})
	}
	g := mustBuild(t, cycle, graph.BuildOptions{Directed: false})
	if got := graph.ClassifyDegrees(g); got != graph.DistBounded {
		t.Errorf("cycle classified as %s, want bounded", got)
	}

	// Power: a big star plus a cycle (hub degree >> median), dense enough
	// to clear the bounded gate.
	var star []graph.Edge
	for i := int32(1); i < 400; i++ {
		star = append(star, graph.Edge{U: 0, V: i})
		star = append(star, graph.Edge{U: i, V: i%20 + 1})
		star = append(star, graph.Edge{U: i, V: i%30 + 2})
	}
	h := mustBuild(t, star, graph.BuildOptions{Directed: false})
	if got := graph.ClassifyDegrees(h); got != graph.DistPower {
		t.Errorf("hub graph classified as %s, want power", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, graph.BuildOptions{Directed: false})
	s := graph.ComputeStats(g)
	if s.NumNodes != 4 || s.NumEdges != 3 {
		t.Fatalf("stats n=%d m=%d", s.NumNodes, s.NumEdges)
	}
	if s.ApproxDiameter != 3 {
		t.Fatalf("diameter = %d, want 3", s.ApproxDiameter)
	}
	if s.MaxDegree != 2 {
		t.Fatalf("max degree = %d, want 2", s.MaxDegree)
	}
	empty := mustBuild(t, nil, graph.BuildOptions{})
	es := graph.ComputeStats(empty)
	if es.NumNodes != 0 {
		t.Fatal("empty graph stats wrong")
	}
}

func TestSkewedDegrees(t *testing.T) {
	// Uniformly dense graph: not skewed.
	var edges []graph.Edge
	for i := int32(0); i < 64; i++ {
		for d := int32(1); d <= 12; d++ {
			edges = append(edges, graph.Edge{U: i, V: (i + d) % 64})
		}
	}
	g := mustBuild(t, edges, graph.BuildOptions{Directed: false})
	if graph.SkewedDegrees(g) {
		t.Error("uniform graph reported skewed")
	}
	// Sparse graph: never worth relabeling regardless of shape.
	sparse := mustBuild(t, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{NumNodes: 100, Directed: false})
	if graph.SkewedDegrees(sparse) {
		t.Error("sparse graph reported skewed")
	}
}
