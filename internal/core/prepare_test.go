package core_test

import (
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/kernel"
)

// TestPrepareViewsWarmsPreparers checks the untimed load phase actually
// reaches Preparer frameworks (SuiteSparse is the only one in the registry).
func TestPrepareViewsWarmsPreparers(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 2, Delta: 16, SourceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fws := core.Frameworks()
	core.PrepareViews(fws, []*core.Input{in})
	// After warmup, a SuiteSparse kernel run must not need to build matrices
	// inside the timed region; observable as the cell simply succeeding fast
	// and verified (behavioural smoke check).
	r := &core.Runner{Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1, Verify: true}
	res := r.RunCell(core.FrameworkByName("SuiteSparse"), core.PR, in, kernel.Baseline)
	if !res.Verified {
		t.Fatalf("prepared SuiteSparse PR failed: %s", res.Err)
	}
}

// TestModeOptionPlumbing checks the runner hands frameworks exactly what
// each rule set allows: no graph name or relabeled view in Baseline, both in
// Optimized.
func TestModeOptionPlumbing(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Urand", Scale: 6, Seed: 2, Delta: 16, SourceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spy := &optionsSpy{}
	r := &core.Runner{Trials: 1, BaselineWorkers: 3, OptimizedWorkers: 5, Verify: false}
	r.RunCell(spy, core.TC, in, kernel.Baseline)
	if spy.last.GraphName != "" || spy.last.RelabeledView != nil {
		t.Error("Baseline leaked Optimized-only knowledge")
	}
	if w := spy.last.Exec().Size(); w != 3 {
		t.Errorf("Baseline machine width = %d, want 3", w)
	}
	if spy.last.UndirectedView == nil {
		t.Error("UndirectedView missing (legal in both modes)")
	}
	r.RunCell(spy, core.TC, in, kernel.Optimized)
	if spy.last.GraphName != "Urand" || spy.last.RelabeledView == nil {
		t.Error("Optimized missing per-graph knowledge")
	}
	if w := spy.last.Exec().Size(); w != 5 {
		t.Errorf("Optimized machine width = %d, want 5", w)
	}
	if spy.last.Delta != 16 {
		t.Errorf("delta = %d, want the spec's 16", spy.last.Delta)
	}
}

// optionsSpy records the options it is invoked with.
type optionsSpy struct{ last kernel.Options }

func (*optionsSpy) Name() string { return "Spy" }
func (s *optionsSpy) BFS(g *gGraph, src gNode, opt kernel.Options) []gNode {
	s.last = opt
	return make([]gNode, g.NumNodes())
}
func (s *optionsSpy) SSSP(g *gGraph, src gNode, opt kernel.Options) []kernel.Dist {
	s.last = opt
	return make([]kernel.Dist, g.NumNodes())
}
func (s *optionsSpy) PR(g *gGraph, opt kernel.Options) []float64 {
	s.last = opt
	return make([]float64, g.NumNodes())
}
func (s *optionsSpy) CC(g *gGraph, opt kernel.Options) []gNode {
	s.last = opt
	return make([]gNode, g.NumNodes())
}
func (s *optionsSpy) BC(g *gGraph, sources []gNode, opt kernel.Options) []float64 {
	s.last = opt
	return make([]float64, g.NumNodes())
}
func (s *optionsSpy) TC(g *gGraph, opt kernel.Options) int64 {
	s.last = opt
	return 0
}

// TestRunCellPreparesRelabeledViewForOptimized checks that a RelabelPreparer
// gets the relabeled view before an Optimized cell's trials, and never
// before a Baseline cell's.
func TestRunCellPreparesRelabeledViewForOptimized(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 2, Delta: 16, SourceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spy := &relabelSpy{zeroFramework: zeroFramework{"RelabelSpy"}}
	r := &core.Runner{Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1}
	defer r.Close()
	r.RunCell(spy, core.TC, in, kernel.Baseline)
	if len(spy.relabeled) != 0 {
		t.Fatalf("Baseline cell prepared %d relabeled views, want none", len(spy.relabeled))
	}
	r.RunCell(spy, core.TC, in, kernel.Optimized)
	if len(spy.relabeled) != 1 || spy.relabeled[0] != in.Relabeled {
		t.Fatalf("Optimized cell prepared %v, want the input's relabeled view once", spy.relabeled)
	}
}

// relabelSpy records the relabeled views it is asked to prepare.
type relabelSpy struct {
	zeroFramework
	relabeled []*gGraph
}

func (*relabelSpy) Prepare(g *gGraph, undirected *gGraph) {}
func (s *relabelSpy) PrepareRelabeled(relabeled *gGraph) {
	s.relabeled = append(s.relabeled, relabeled)
}
