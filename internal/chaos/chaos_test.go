package chaos

import (
	"sync"
	"sync/atomic"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// fixed is a trivial framework whose outputs are recognizable constants.
type fixed struct{}

func (fixed) Name() string { return "Fixed" }
func (fixed) BFS(g *graph.Graph, src graph.NodeID, _ kernel.Options) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = -1
	}
	if int(src) < int(g.NumNodes()) {
		out[src] = src
	}
	return out
}
func (fixed) SSSP(g *graph.Graph, _ graph.NodeID, _ kernel.Options) []kernel.Dist {
	return make([]kernel.Dist, g.NumNodes())
}
func (fixed) PR(g *graph.Graph, _ kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (fixed) CC(g *graph.Graph, _ kernel.Options) []graph.NodeID {
	return make([]graph.NodeID, g.NumNodes())
}
func (fixed) BC(g *graph.Graph, _ []graph.NodeID, _ kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (fixed) TC(*graph.Graph, kernel.Options) int64 { return 42 }

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := generate.ByName("Urand", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPassthroughWhenUnmatched(t *testing.T) {
	g := testGraph(t)
	// A fault for a different kernel never fires.
	inj := Wrap(fixed{}, 7, &Fault{Kernel: "PR", Mode: Panic})
	if got := inj.TC(g, kernel.Options{}); got != 42 {
		t.Fatalf("TC = %d, want passthrough 42", got)
	}
	if inj.Name() != "Fixed" {
		t.Fatalf("Name = %q", inj.Name())
	}
}

func TestCorruptIsDeterministicAndOnceDisarms(t *testing.T) {
	g := testGraph(t)
	a := Wrap(fixed{}, 7, &Fault{Kernel: "SSSP", Mode: Corrupt}).SSSP(g, 0, kernel.Options{})
	b := Wrap(fixed{}, 7, &Fault{Kernel: "SSSP", Mode: Corrupt}).SSSP(g, 0, kernel.Options{})
	var hitA, hitB = -1, -1
	for i := range a {
		if a[i] != 0 {
			hitA = i
		}
		if b[i] != 0 {
			hitB = i
		}
	}
	if hitA < 0 || hitA != hitB {
		t.Fatalf("corruption sites %d vs %d, want one deterministic site", hitA, hitB)
	}
	c := Wrap(fixed{}, 8, &Fault{Kernel: "SSSP", Mode: Corrupt}).SSSP(g, 0, kernel.Options{})
	hitC := -1
	for i := range c {
		if c[i] != 0 {
			hitC = i
		}
	}
	if hitC == hitA {
		t.Logf("seeds 7 and 8 collided on index %d (possible, just unlucky)", hitC)
	}

	// Once: fires on the first matching call only.
	once := &Fault{Kernel: "TC", Mode: Corrupt, Once: true}
	inj := Wrap(fixed{}, 7, once)
	if got := inj.TC(g, kernel.Options{}); got == 42 {
		t.Fatal("Once fault did not fire on first call")
	}
	if got := inj.TC(g, kernel.Options{}); got != 42 {
		t.Fatalf("Once fault fired twice: second TC = %d", got)
	}
}

// TestOnceFiresOnceUnderConcurrentMatches: eight goroutines match one Once
// fault at the same time; exactly one of them may fire it.
func TestOnceFiresOnceUnderConcurrentMatches(t *testing.T) {
	g := testGraph(t)
	inj := Wrap(fixed{}, 7, &Fault{Kernel: "TC", Mode: Corrupt, Once: true})
	var fired atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if inj.TC(g, kernel.Options{}) != 42 {
				fired.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := fired.Load(); got != 1 {
		t.Fatalf("Once fault fired %d times across 8 concurrent matches, want 1", got)
	}
}

func TestGraphScopedFaultNeedsGraphName(t *testing.T) {
	g := testGraph(t)
	inj := Wrap(fixed{}, 7, &Fault{Kernel: "TC", Graph: "Kron", Mode: Corrupt})
	if got := inj.TC(g, kernel.Options{GraphName: "Urand"}); got != 42 {
		t.Fatalf("fault for Kron fired on Urand: TC = %d", got)
	}
	if got := inj.TC(g, kernel.Options{GraphName: "Kron"}); got == 42 {
		t.Fatal("fault for Kron did not fire on Kron")
	}
}
