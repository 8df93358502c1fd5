package kernel_test

import (
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

func TestModeString(t *testing.T) {
	if kernel.Baseline.String() != "Baseline" || kernel.Optimized.String() != "Optimized" {
		t.Fatal("mode strings wrong")
	}
}

func TestOptionsUndirected(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without a prebuilt view the kernel derives one.
	u := (kernel.Options{}).Undirected(g)
	if u.Directed() {
		t.Fatal("derived view is directed")
	}
	// With a prebuilt view it is used verbatim.
	view := g.Undirected()
	if got := (kernel.Options{UndirectedView: view}).Undirected(g); got != view {
		t.Fatal("prebuilt view not used")
	}
}

func TestConstantsMatchGAPSpec(t *testing.T) {
	if kernel.PRDamping != 0.85 {
		t.Errorf("damping = %v", kernel.PRDamping)
	}
	if kernel.BCSources != 4 {
		t.Errorf("BC sources = %d", kernel.BCSources)
	}
	if kernel.Inf <= 0 {
		t.Error("Inf not positive")
	}
}
