package core_test

import (
	"sync"
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

// TestRunCellPreparesRelabeledViewForOptimized checks that an Optimized TC
// cell prepares the relabeled view, with no input graph, and hands the kernel
// that view's state, while a Baseline cell prepares and reads the input
// graph's.
func TestRunCellPreparesRelabeledViewForOptimized(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 2, Delta: 16, SourceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	spy := &prepareSpy{zeroFramework: zeroFramework{"PrepareSpy"}}
	r := &core.Runner{Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1}
	defer r.Close()
	r.RunCell(spy, core.TC, in, kernel.Baseline)
	if len(spy.calls) != 1 || spy.calls[0] != [2]*gGraph{in.Graph, in.Undirected} || spy.seen != spy.states[0] {
		t.Fatalf("Baseline cell prepared %v and read state %v, want the input graph's once", spy.calls, spy.seen)
	}
	for range 2 {
		r.RunCell(spy, core.TC, in, kernel.Optimized)
	}
	if len(spy.calls) != 2 || spy.calls[1] != [2]*gGraph{nil, in.Relabeled} || spy.seen != spy.states[1] {
		t.Fatalf("Optimized cells prepared %v and read state %v, want the relabeled view's once", spy.calls, spy.seen)
	}
}

// TestPrepareRunsOncePerInputFrameworkAndView has concurrent callers ask for
// both views' states, then runs every kernel in both modes, over two inputs:
// Prepare runs once per (input, framework, view), and never on a closed
// input.
func TestPrepareRunsOncePerInputFrameworkAndView(t *testing.T) {
	spy := &prepareSpy{zeroFramework: zeroFramework{"PrepareSpy"}}
	r := &core.Runner{Trials: 2, BaselineWorkers: 2, OptimizedWorkers: 2}
	defer r.Close()
	for i := range 2 {
		in, err := core.LoadInput(core.GraphSpec{Name: "Twitter", Scale: 6, Seed: uint64(i + 1), Delta: 16, SourceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in.Prepared(spy, c%2 == 0)
			}()
		}
		wg.Wait()
		if _, err := r.RunSuite([]kernel.Framework{spy}, []*core.Input{in}, []kernel.Mode{kernel.Baseline, kernel.Optimized}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if got := len(spy.calls); got != 2*(i+1) {
			t.Fatalf("input %d: %d Prepare calls so far, want %d: one per view", i, got, 2*(i+1))
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		if st := in.Prepared(spy, false); st != nil || len(spy.calls) != 2*(i+1) {
			t.Fatalf("closed input returned %v after %d calls", st, len(spy.calls))
		}
	}
}

// prepareSpy records the views it prepares, the state it returned for each,
// and the state its last TC was handed.
type prepareSpy struct {
	zeroFramework
	mu     sync.Mutex
	calls  [][2]*gGraph
	states []any
	seen   any
}

func (s *prepareSpy) Prepare(g, undirected *gGraph) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := new(int)
	s.calls = append(s.calls, [2]*gGraph{g, undirected})
	s.states = append(s.states, state)
	return state
}

func (s *prepareSpy) TC(g *gGraph, opt kernel.Options) int64 {
	s.seen = opt.Prepared
	return 0
}

// TestRunCellWhileRelabeledViewBuilds runs cells while another goroutine,
// started from inside the first trial's kernel, builds the input's relabeled
// view through Prepared(f, true). The runner reads that view only for
// Optimized TC cells and only through RelabeledView, so under -race nothing
// the cells read races the build.
func TestRunCellWhileRelabeledViewBuilds(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 2, Delta: 16, SourceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	f := &relabelDuringBFS{Framework: core.FrameworkByName("GAP"), in: in, built: make(chan struct{})}
	r := &core.Runner{Trials: 3, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
	defer r.Close()
	for _, mode := range []kernel.Mode{kernel.Optimized, kernel.Baseline} {
		if res := r.RunCell(f, core.BFS, in, mode); res.Status != core.OK {
			t.Errorf("%v BFS: %s: %s", mode, res.Status, res.Err)
		}
	}
	<-f.built
	if res := r.RunCell(f, core.TC, in, kernel.Optimized); res.Status != core.OK {
		t.Errorf("Optimized TC after the build: %s: %s", res.Status, res.Err)
	}
}

// relabelDuringBFS is a framework whose first BFS starts a goroutine that
// prepares the input's relabeled view, and closes built when it is done.
type relabelDuringBFS struct {
	kernel.Framework
	in    *core.Input
	once  sync.Once
	built chan struct{}
}

func (f *relabelDuringBFS) BFS(g *gGraph, src gNode, opt kernel.Options) []gNode {
	f.once.Do(func() {
		go func() {
			defer close(f.built)
			f.in.Prepared(f.Framework, true)
		}()
	})
	return f.Framework.BFS(g, src, opt)
}
