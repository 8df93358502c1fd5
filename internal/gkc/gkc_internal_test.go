package gkc

import (
	"testing"
	"testing/quick"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

func TestLeeLowMatchesSerialPrefix(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	for _, name := range []string{"Kron", "Twitter", "Urand"} {
		g, err := generate.ByName(name, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		u := g.Undirected()
		want := serialPrefixTC(u)
		if got := leeLowTC(par.Default(), u); got != want {
			t.Fatalf("%s: leeLowTC = %d, serial = %d", name, got, want)
		}
		if oracle := verify.Triangles(u); oracle != want {
			t.Fatalf("%s: serial = %d, oracle = %d", name, want, oracle)
		}
	}
}

func TestLeeLowMarkerPath(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// A clique forces every row past the marker threshold.
	const k = 80 // degree 79 >= markerThreshold (64)
	var edges []graph.WEdge
	for i := int32(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, graph.WEdge{U: i, V: j, W: 1})
		}
	}
	g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: k, Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(k) * (k - 1) * (k - 2) / 6
	if got := leeLowTC(par.Default(), g); got != want {
		t.Fatalf("marker path count = %d, want %d", got, want)
	}
}

func TestIntersectHelpers(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	x := []graph.NodeID{1, 4, 6, 9}
	y := []graph.NodeID{2, 4, 9, 12}
	if got := mergeFwd(x, y); got != 2 {
		t.Fatalf("mergeFwd = %d, want 2", got)
	}
	if mergeFwd(nil, y) != 0 || mergeFwd(x, nil) != 0 {
		t.Fatal("empty intersections nonzero")
	}
	if lowerBound(x, 5) != 2 || lowerBound(x, 1) != 0 || lowerBound(x, 10) != 4 {
		t.Fatal("lowerBound wrong")
	}
}

func TestHybridSVEquivalentToOracle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	for _, name := range []string{"Road", "Kron"} {
		g, err := generate.ByName(name, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckCC(g, hybridSV(par.Default(), g)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSerialThresholdBFSBoundary(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// A star with hub degree above the serial threshold forces the parallel
	// push path; a path graph stays serial. Both must be correct.
	var star []graph.WEdge
	for i := int32(1); i <= serialThreshold*2; i++ {
		star = append(star, graph.WEdge{U: 0, V: i, W: 1})
		if i > 1 {
			star = append(star, graph.WEdge{U: i, V: i - 1, W: 1})
		}
	}
	g, err := graph.BuildWeighted(star, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckBFS(g, 0, bfs(par.Default(), g, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property: hybridSV and the oracle agree on random small graphs.
func TestHybridSVProperty(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	f := func(raw []uint8) bool {
		edges := make([]graph.WEdge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.WEdge{U: graph.NodeID(raw[i] % 32), V: graph.NodeID(raw[i+1] % 32), W: 1})
		}
		g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: 32, Directed: false})
		if err != nil {
			return false
		}
		return verify.CheckCC(g, hybridSV(par.Default(), g)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
