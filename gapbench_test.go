package gapbench_test

import (
	"strings"
	"testing"

	"gapbench"
)

// TestFacadeEndToEnd drives the public API exactly the way the README's
// quick start does: generate, run, verify, report.
func TestFacadeEndToEnd(t *testing.T) {
	g, err := gapbench.GenerateGraph("Kron", 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	stats := gapbench.ComputeStats(g)
	if stats.NumNodes != g.NumNodes() {
		t.Fatal("stats disagree with graph")
	}

	fws := gapbench.Frameworks()
	if len(fws) != 6 {
		t.Fatalf("frameworks = %d", len(fws))
	}
	src := gapbench.NodeID(0)
	for _, fw := range fws {
		if err := gapbench.VerifyBFS(g, src, fw.BFS(g, src, gapbench.Options{})); err != nil {
			t.Errorf("%s BFS: %v", fw.Name(), err)
		}
		if err := gapbench.VerifySSSP(g, src, fw.SSSP(g, src, gapbench.Options{Delta: 16})); err != nil {
			t.Errorf("%s SSSP: %v", fw.Name(), err)
		}
	}

	if gapbench.FrameworkByName("GKC") == nil || gapbench.FrameworkByName("?") != nil {
		t.Fatal("FrameworkByName wrong")
	}
}

func TestFacadeBuildAndIO(t *testing.T) {
	g, err := gapbench.BuildGraph([]gapbench.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, gapbench.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.sg"
	if err := g.SaveSG(path); err != nil {
		t.Fatal(err)
	}
	back, err := gapbench.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed edge count")
	}
}

func TestFacadeRunnerAndTables(t *testing.T) {
	in, err := gapbench.LoadInput(gapbench.GraphSpec{Name: "Urand", Scale: 7, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := gapbench.NewRunner()
	r.Trials = 1
	r.BaselineWorkers = 2
	r.OptimizedWorkers = 2
	fws := gapbench.Frameworks()
	results, err := r.RunSuite(fws, []*gapbench.Input{in},
		[]gapbench.Mode{gapbench.Baseline}, []gapbench.Kernel{gapbench.BFS, gapbench.PR}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(fws) {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if !res.Verified {
			t.Errorf("%s %s failed verification: %s", res.Framework, res.Kernel, res.Err)
		}
	}
	tableIV := gapbench.TableIV(results, []string{"Urand"})
	if !strings.Contains(tableIV, "BFS") || !strings.Contains(tableIV, "Urand") {
		t.Fatalf("Table IV malformed:\n%s", tableIV)
	}
	tableV := gapbench.TableV(results, []string{"Urand"})
	if !strings.Contains(tableV, "%") {
		t.Fatalf("Table V malformed:\n%s", tableV)
	}
	csv := gapbench.ResultsCSV(results)
	if strings.Count(csv, "\n") != len(results)+1 {
		t.Fatalf("CSV rows = %d, want %d", strings.Count(csv, "\n"), len(results)+1)
	}
	if s := gapbench.TableII(fws); !strings.Contains(s, "sparse linear algebra") {
		t.Fatal("Table II malformed")
	}
	if s := gapbench.TableIII(fws); !strings.Contains(s, "Afforest") {
		t.Fatal("Table III malformed")
	}
	stats := []gapbench.Stats{gapbench.ComputeStats(in.Graph)}
	if s := gapbench.TableI([]string{"Urand"}, stats); !strings.Contains(s, "Urand") {
		t.Fatal("Table I malformed")
	}
}

func TestFacadeSuiteSpecs(t *testing.T) {
	specs := gapbench.DefaultSuite(10)
	if len(specs) != 5 {
		t.Fatalf("suite size = %d", len(specs))
	}
	if len(gapbench.GraphNames) != 5 {
		t.Fatalf("GraphNames = %v", gapbench.GraphNames)
	}
}

func TestFacadeExtensionsAndCharacterization(t *testing.T) {
	g, err := gapbench.BuildWeightedGraph([]gapbench.WEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 9}, {U: 3, V: 4, W: 1},
	}, gapbench.BuildOptions{NumNodes: 5, Directed: false})
	if err != nil {
		t.Fatal(err)
	}

	labels := gapbench.CDLP(g, 5, 2)
	sizes := gapbench.CommunitySizes(labels)
	if len(sizes) == 0 || sizes[0] < 2 {
		t.Fatalf("CDLP sizes = %v", sizes)
	}
	lcc := gapbench.LCC(g, 2)
	if lcc[0] != 1 || lcc[3] != 0 {
		t.Fatalf("LCC = %v", lcc)
	}

	fw := gapbench.FrameworkByName("GAP")
	if err := gapbench.VerifyPR(g, fw.PR(g, gapbench.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := gapbench.VerifyCC(g, fw.CC(g, gapbench.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := gapbench.VerifyBC(g, []gapbench.NodeID{0}, fw.BC(g, []gapbench.NodeID{0}, gapbench.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := gapbench.VerifyTC(g, fw.TC(g, gapbench.Options{})); err != nil {
		t.Fatal(err)
	}

	p := gapbench.CharacterizeBFS(g, 0)
	if p.Rounds == 0 {
		t.Fatal("BFS profile empty")
	}
	p2 := gapbench.CharacterizeSSSP(g, 0, 16)
	p3 := gapbench.CharacterizePR(g)
	out := gapbench.CharacterizationReport([]gapbench.Profile{p, p2, p3})
	if !strings.Contains(out, "BFS") || !strings.Contains(out, "SSSP") || !strings.Contains(out, "PR") {
		t.Fatalf("characterization report incomplete:\n%s", out)
	}
}
