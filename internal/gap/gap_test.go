package gap_test

import (
	"testing"

	"gapbench/internal/gap"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

func TestConformance(t *testing.T) {
	testutil.RunConformance(t, gap.New())
}

func TestDescribe(t *testing.T) {
	testutil.Describe(t, gap.New())
}

func TestAcrossWorkerCounts(t *testing.T) {
	g, err := generate.Kron(9, 7)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RunKernelAcrossWorkers(t, gap.New(), g)
}

func TestDeltaStepDeltaInsensitive(t *testing.T) {
	// Distances must be exact for any positive delta; only speed may change.
	g, err := generate.Road(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := testutil.Sources(g)[0]
	for _, delta := range []kernel.Dist{1, 2, 16, 64, 1 << 20} {
		dist := gap.DeltaStep(g, src, delta, kernel.Options{}, true)
		if err := verify.CheckSSSP(g, src, dist); err != nil {
			t.Errorf("delta=%d: %v", delta, err)
		}
	}
}

func TestDeltaStepFusionEquivalence(t *testing.T) {
	g, err := generate.Twitter(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	src := testutil.Sources(g)[0]
	fused := gap.DeltaStep(g, src, 16, kernel.Options{}, true)
	plain := gap.DeltaStep(g, src, 16, kernel.Options{}, false)
	for v := range fused {
		if fused[v] != plain[v] {
			t.Fatalf("dist[%d]: fused %d != unfused %d", v, fused[v], plain[v])
		}
	}
}

func TestBFSRepeatedRunsDeterministicShape(t *testing.T) {
	// Parent arrays may differ between runs (ties are racy by design), but
	// the depth of every vertex implied by the tree must be stable.
	g, err := generate.Web(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := testutil.Sources(g)[0]
	ref := verify.BFSDepths(g, src)
	for trial := 0; trial < 3; trial++ {
		parent := gap.New().BFS(g, src, kernel.Options{})
		if err := verify.CheckBFS(g, src, parent); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// CheckBFS already validates depths against the oracle; spot-check
		// reachability agreement too.
		for v := range parent {
			if (parent[v] >= 0) != (ref[v] >= 0) {
				t.Fatalf("trial %d: reachability of %d changed", trial, v)
			}
		}
	}
}

func TestBrandesMatchesOracleOnAllSources(t *testing.T) {
	g, err := generate.Kron(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	srcs := testutil.BCSources(g)
	scores := gap.New().BC(g, srcs, kernel.Options{})
	if err := verify.CheckBC(g, srcs, scores); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleCountKnownValues(t *testing.T) {
	// Clique of k has C(k,3) triangles.
	var edges []graph.WEdge
	const k = 10
	for i := int32(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, graph.WEdge{U: i, V: j, W: 1})
		}
	}
	g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: k, Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(k * (k - 1) * (k - 2) / 6)
	if got := gap.New().TC(g, kernel.Options{}); got != want {
		t.Fatalf("clique%d triangles = %d, want %d", k, got, want)
	}
}

func TestPageRankGSVariant(t *testing.T) {
	// The §VI-proposed Gauss-Seidel reference variant must converge to the
	// same fixed point as the Jacobi reference.
	g, err := generate.Web(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := par.NewMachine(2)
	defer m.Close()
	ranks := gap.PageRankGS(g, kernel.Options{Machine: m})
	if err := verify.CheckPR(g, ranks); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaStepLightHeavy(t *testing.T) {
	m := par.NewMachine(3)
	defer m.Close()
	for _, name := range []string{"Road", "Kron"} {
		g, err := generate.ByName(name, 8, 6)
		if err != nil {
			t.Fatal(err)
		}
		src := testutil.Sources(g)[0]
		for _, delta := range []kernel.Dist{8, 64, 512} {
			dist := gap.DeltaStepLightHeavy(g, src, delta, kernel.Options{Machine: m})
			if err := verify.CheckSSSP(g, src, dist); err != nil {
				t.Fatalf("%s delta=%d: %v", name, delta, err)
			}
		}
	}
}
