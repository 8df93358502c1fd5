package core_test

import (
	"strings"
	"sync"
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
	if in.Graph == nil || in.Undirected == nil {
		t.Fatal("missing views")
	}
	if in.Relabeled != nil {
		t.Error("the load built the relabeled view; only an Optimized TC cell reads it")
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

// TestTimedRelabelCountsInTheCell: every framework relabels a skewed graph
// inside every Baseline TC trial, and those regions must land in the cell's
// SyncStats — the framework's count on a relabeled view plus exactly the
// relabel's own launches.
func TestTimedRelabelCountsInTheCell(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 8, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SkewedDegrees(in.Undirected) {
		t.Fatal("Kron-8 no longer passes the relabel heuristic; the test needs a skewed input")
	}
	m := par.NewMachine(2)
	defer m.Close()
	graph.DegreeRelabel(m, in.Undirected)
	relabel := m.Stats().Regions
	if relabel == 0 {
		t.Fatal("the relabel launched no region")
	}
	untimed := kernel.Options{Mode: kernel.Optimized, UndirectedView: in.Undirected, RelabeledView: in.RelabeledView(), Machine: m}
	r := &core.Runner{Trials: 2, BaselineWorkers: 2, OptimizedWorkers: 4}
	defer r.Close()
	for _, f := range core.Frameworks() {
		m.ResetStats()
		f.TC(in.Graph, untimed)
		count := m.Stats().Regions
		res := r.RunCell(f, core.TC, in, kernel.Baseline)
		if res.Status != core.OK {
			t.Fatalf("%s TC cell: %s: %s", f.Name(), res.Status, res.Err)
		}
		if want := 2 * (count + relabel); res.Sync.Regions != want {
			t.Errorf("%s TC cell counted %d regions over 2 trials, want %d (%d count + %d relabel launches a trial)",
				f.Name(), res.Sync.Regions, want, count, relabel)
		}
	}
}

// TestLoadsBuildNoRelabeledView: no way of loading an input builds the
// relabeled view; the first Optimized TC cell builds it, and later ones
// reuse it.
func TestLoadsBuildNoRelabeledView(t *testing.T) {
	spec := core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5}
	dir := t.TempDir()
	loads := []struct {
		name string
		load func() (*core.Input, error)
	}{
		{"PrepareInput", func() (*core.Input, error) {
			g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
			if err != nil {
				return nil, err
			}
			return core.PrepareInput(spec, g), nil
		}},
		{"LoadCachedInput cold", func() (*core.Input, error) { return core.LoadCachedInput(spec, dir) }},
		{"LoadCachedInput warm", func() (*core.Input, error) { return core.LoadCachedInput(spec, dir) }},
		{"MountInputs", func() (*core.Input, error) {
			ins, err := core.MountInputs("", []core.GraphSpec{spec}, dir)
			if err != nil {
				return nil, err
			}
			return ins[0], nil
		}},
	}
	var last *core.Input
	for _, l := range loads {
		in, err := l.load()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if in.Relabeled != nil {
			t.Errorf("%s built the relabeled view", l.name)
		}
		if last != nil {
			_ = last.Close()
		}
		last = in
	}
	defer last.Close()

	r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
	defer r.Close()
	gap := core.FrameworkByName(core.ReferenceName)
	if res := r.RunCell(gap, core.TC, last, kernel.Baseline); res.Status != core.OK || last.Relabeled != nil {
		t.Fatalf("Baseline TC cell: %s %s, relabeled view %p: want OK and none built", res.Status, res.Err, last.Relabeled)
	}
	if res := r.RunCell(gap, core.BFS, last, kernel.Optimized); res.Status != core.OK || last.Relabeled != nil {
		t.Fatalf("Optimized BFS cell: %s %s, relabeled view %p: want OK and none built", res.Status, res.Err, last.Relabeled)
	}
	var views []*graph.Graph
	for range 2 {
		if res := r.RunCell(gap, core.TC, last, kernel.Optimized); res.Status != core.OK || !res.Verified {
			t.Fatalf("Optimized TC cell: %s %s", res.Status, res.Err)
		}
		views = append(views, last.Relabeled)
	}
	if views[0] == nil || views[0] != views[1] {
		t.Fatalf("two Optimized TC cells saw relabeled views %p and %p, want one built view", views[0], views[1])
	}
}

// TestRelabeledViewBuildsOnce: callers racing for the relabeled view all get
// the one view built.
func TestRelabeledViewBuildsOnce(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	views := make([]*graph.Graph, 4)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = in.RelabeledView()
		}()
	}
	wg.Wait()
	for i, v := range views {
		if v == nil || v != views[0] || v.Layout() != graph.LayoutDegree {
			t.Fatalf("caller %d got view %p (first %p), want one degree-layout view", i, v, views[0])
		}
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

// TestSuiteSpecsRefusesUnknownAndRepeatedGraphs: a -graphs list selects the
// named graphs in the order named; an unknown name is an error, and so is a
// graph named twice (in any case), which would otherwise run twice and be
// mounted by two writers of one cache file.
func TestSuiteSpecsRefusesUnknownAndRepeatedGraphs(t *testing.T) {
	specs, err := core.SuiteSpecs(6, "Kron, road")
	if err != nil || len(specs) != 2 || specs[0].Name != "Kron" || specs[1].Name != "Road" {
		t.Fatalf("SuiteSpecs(Kron, road) = %+v, %v; want Kron then Road", specs, err)
	}
	if _, err := core.SuiteSpecs(6, "Kron,Ring"); err == nil || !strings.Contains(err.Error(), `"Ring"`) {
		t.Errorf("unknown graph: %v", err)
	}
	for _, csv := range []string{"Kron,Kron", "Road,Kron,kron"} {
		if specs, err := core.SuiteSpecs(6, csv); err == nil || !strings.Contains(err.Error(), `"Kron" named twice`) {
			t.Errorf("SuiteSpecs(%s) = %+v, %v; want an error naming Kron", csv, specs, err)
		}
	}
}
