package graph_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gapbench/internal/graph"
)

func TestReadEdgeListUnweighted(t *testing.T) {
	in := "# a comment\n0 1\n\n1 2\n 2 0 \n"
	edges, weighted, err := graph.ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if weighted {
		t.Fatal("unweighted input reported weighted")
	}
	if len(edges) != 3 || edges[2].U != 2 || edges[2].V != 0 || edges[0].W != 1 {
		t.Fatalf("edges = %v", edges)
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	edges, weighted, err := graph.ReadEdgeList(strings.NewReader("0 1 5\n1 2 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !weighted || edges[1].W != 7 {
		t.Fatalf("weighted=%t edges=%v", weighted, edges)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for name, in := range map[string]string{
		"too many fields":   "0 1 2 3\n",
		"bad source":        "x 1\n",
		"bad destination":   "0 y\n",
		"bad weight":        "0 1 z\n",
		"weight appears":    "0 1\n1 2 3\n",
		"weight disappears": "0 1 3\n1 2\n",
	} {
		if _, _, err := graph.ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadEdgeListWeighted(t *testing.T) {
	g, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 5}, {U: 2, V: 0, W: 7},
	}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.wel")
	if err := os.WriteFile(path, []byte("0 1 3\n1 2 5\n2 0 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := graph.LoadEdgeList(path, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("loaded edge list differs from the built graph")
	}
}

func TestLoadEdgeListUnweightedStripsWeights(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := graph.LoadEdgeList(path, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("unweighted edge list produced a weighted graph")
	}
}
