package core_test

import (
	"strings"
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

type (
	gGraph = graph.Graph
	gNode  = graph.NodeID
)

func TestDefaultSuiteShape(t *testing.T) {
	specs := core.DefaultSuite(10)
	if len(specs) != 5 {
		t.Fatalf("suite has %d specs, want 5", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Delta <= 0 {
			t.Errorf("%s: delta %d", s.Name, s.Delta)
		}
	}
	for _, want := range generate.Names {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
	// Road carries the largest scale (small edge count but big diameter).
	for _, s := range specs {
		if s.Name == generate.NameRoad && s.Scale <= 10 {
			t.Errorf("road scale %d not above base", s.Scale)
		}
	}
}

func TestLoadInputPreparesEverything(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 7, Seed: 3, Delta: 16, SourceSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if in.Graph == nil || in.Undirected == nil || in.Relabeled == nil {
		t.Fatal("missing views")
	}
	if len(in.Sources) == 0 || len(in.BCRoots) == 0 {
		t.Fatal("missing sources")
	}
	for _, s := range in.Sources {
		if in.Graph.OutDegree(s) == 0 {
			t.Errorf("source %d has no out-edges", s)
		}
	}
	for _, roots := range in.BCRoots {
		if len(roots) != kernel.BCSources {
			t.Errorf("BC root set size %d, want %d", len(roots), kernel.BCSources)
		}
	}
	if _, err := core.LoadInput(core.GraphSpec{Name: "bogus", Scale: 7}); err == nil {
		t.Error("bogus graph name accepted")
	}
}

func TestPickSourcesDeterministic(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Urand", Scale: 7, Seed: 3, SourceSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := core.PickSources(in.Graph, 8, 42)
	b := core.PickSources(in.Graph, 8, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("source picking not deterministic")
		}
	}
}

func TestRegistry(t *testing.T) {
	fs := core.Frameworks()
	if len(fs) != 6 {
		t.Fatalf("registry has %d frameworks, want 6", len(fs))
	}
	if fs[0].Name() != core.ReferenceName {
		t.Fatalf("first framework is %s, want the reference %s", fs[0].Name(), core.ReferenceName)
	}
	for _, f := range fs {
		if core.FrameworkByName(f.Name()) == nil {
			t.Errorf("FrameworkByName(%q) = nil", f.Name())
		}
		if _, ok := f.(kernel.Describer); !ok {
			t.Errorf("%s lacks Table II/III metadata", f.Name())
		}
	}
	if core.FrameworkByName("nope") != nil {
		t.Error("unknown framework resolved")
	}
	names := core.FrameworkNames()
	if len(names) != 6 || names[0] != "GAP" {
		t.Fatalf("names = %v", names)
	}
}

func TestRunCellVerifiesAndTimes(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 7, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &core.Runner{Trials: 2, BaselineWorkers: 2, OptimizedWorkers: 4, Verify: true}
	for _, k := range core.Kernels {
		res := r.RunCell(core.FrameworkByName("GAP"), k, in, kernel.Baseline)
		if !res.Verified {
			t.Errorf("%s: verification failed: %s", k, res.Err)
		}
		if res.Seconds <= 0 || res.AvgSeconds < res.Seconds {
			t.Errorf("%s: timing wrong: best=%v avg=%v", k, res.Seconds, res.AvgSeconds)
		}
		if res.Trials != 2 {
			t.Errorf("%s: trials = %d", k, res.Trials)
		}
	}
}

// TestTimedRelabelCountsInTheCell: GAP relabels a skewed graph inside every
// Baseline TC trial, and those regions must land in the cell's SyncStats —
// one launch for the ordered count plus exactly the relabel's own.
func TestTimedRelabelCountsInTheCell(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 8, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SkewedDegrees(in.Undirected) {
		t.Fatal("Kron-8 no longer passes the relabel heuristic; the test needs a skewed input")
	}
	r := &core.Runner{Trials: 2, BaselineWorkers: 2, OptimizedWorkers: 4}
	defer r.Close()
	res := r.RunCell(core.FrameworkByName("GAP"), core.TC, in, kernel.Baseline)
	if res.Status != core.OK {
		t.Fatalf("TC cell: %s: %s", res.Status, res.Err)
	}
	m := par.NewMachine(2)
	defer m.Close()
	graph.DegreeRelabel(m, in.Undirected)
	relabel := m.Stats().Regions
	if relabel == 0 {
		t.Fatal("the relabel launched no region")
	}
	if want := 2 * (1 + relabel); res.Sync.Regions != want {
		t.Fatalf("TC cell counted %d regions over 2 trials, want %d (1 count + %d relabel launches a trial)",
			res.Sync.Regions, want, relabel)
	}
}

func TestRunCellCatchesWrongResults(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Urand", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &core.Runner{Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1, Verify: true}
	res := r.RunCell(brokenFramework{}, core.TC, in, kernel.Baseline)
	if res.Verified {
		t.Fatal("broken framework passed verification")
	}
	if !strings.Contains(res.Err, "tc") {
		t.Fatalf("error %q does not identify the kernel", res.Err)
	}
}

func TestRunSuiteAndSpeedups(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
	fws := []kernel.Framework{core.FrameworkByName("GAP"), core.FrameworkByName("GKC")}
	var progressed int
	results, err := r.RunSuite(fws, []*core.Input{in}, []kernel.Mode{kernel.Baseline}, []core.Kernel{core.BFS, core.TC}, func(core.Result) { progressed++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || progressed != 4 {
		t.Fatalf("results = %d progressed = %d, want 4", len(results), progressed)
	}
	speedups := core.SpeedupVsReference(results)
	if len(speedups) != 2 {
		t.Fatalf("speedups = %v, want 2 GKC entries", speedups)
	}
	for key, ratio := range speedups {
		if !strings.HasPrefix(key, "GKC|") || ratio <= 0 {
			t.Fatalf("bad speedup entry %s=%v", key, ratio)
		}
	}
}

// brokenFramework returns wrong answers for everything; only TC is used.
type brokenFramework struct{}

func (brokenFramework) Name() string { return "Broken" }
func (brokenFramework) BFS(g *gGraph, src gNode, opt kernel.Options) []gNode {
	return make([]gNode, g.NumNodes())
}
func (brokenFramework) SSSP(g *gGraph, src gNode, opt kernel.Options) []kernel.Dist {
	return make([]kernel.Dist, g.NumNodes())
}
func (brokenFramework) PR(g *gGraph, opt kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (brokenFramework) CC(g *gGraph, opt kernel.Options) []gNode {
	return make([]gNode, g.NumNodes())
}
func (brokenFramework) BC(g *gGraph, sources []gNode, opt kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (brokenFramework) TC(g *gGraph, opt kernel.Options) int64 { return -1 }
