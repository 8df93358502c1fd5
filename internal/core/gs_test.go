package core_test

import (
	"math"
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/gap"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// TestGaussSeidelSweepsNoMoreThanJacobi counts the sweeps of every
// Gauss-Seidel PageRank against the GAP reference's Jacobi sweeps on all five
// generators. §V-D credits Gauss-Seidel with converging in fewer sweeps; a
// GS kernel that lets its rank mass drift (and computes the dangling share
// from the drifted scores) converges slowly on the graphs with dangling
// vertices, Kron and Twitter, and fails here. Sweeps are counted, not timed:
// each kernel runs with one worker on a private machine, and every sweep is
// exactly two regions (the start-of-sweep mass pass and the gather).
func TestGaussSeidelSweepsNoMoreThanJacobi(t *testing.T) {
	m := par.NewMachine(1)
	defer m.Close()
	opt := kernel.Options{Machine: m}
	sweeps := func(pr func(*graph.Graph, kernel.Options) []float64, g *graph.Graph) (int64, []float64) {
		m.ResetStats()
		ranks := pr(g, opt)
		return m.Stats().Regions / 2, ranks
	}
	gs := []struct {
		name string
		pr   func(*graph.Graph, kernel.Options) []float64
	}{
		{"Galois", core.FrameworkByName("Galois").PR},
		{"GKC", core.FrameworkByName("GKC").PR},
		{"NWGraph", core.FrameworkByName("NWGraph").PR},
		{"GAP-GS", gap.PageRankGS},
	}
	for _, name := range generate.Names {
		in, err := core.LoadInput(core.GraphSpec{Name: name, Scale: 10, Seed: 1, Delta: 16, SourceSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		jacobi, _ := sweeps(core.FrameworkByName("GAP").PR, in.Graph)
		for _, k := range gs {
			got, ranks := sweeps(k.pr, in.Graph)
			t.Logf("%s %s: %d Gauss-Seidel sweeps, %d Jacobi", name, k.name, got, jacobi)
			if got > jacobi {
				t.Errorf("%s %s: %d Gauss-Seidel sweeps > %d Jacobi sweeps", name, k.name, got, jacobi)
			}
			if (name == generate.NameKron || name == generate.NameTwitter) && got > 8 {
				t.Errorf("%s %s: %d Gauss-Seidel sweeps, want ≤ 8 on a graph with dangling vertices", name, k.name, got)
			}
			var sum float64
			for _, r := range ranks {
				sum += r
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%s %s: scores sum to 1%+.3g, want 1 within 1e-12", name, k.name, sum-1)
			}
			if err := verify.CheckPR(in.Graph, ranks); err != nil {
				t.Errorf("%s %s: %v", name, k.name, err)
			}
		}
	}
}
