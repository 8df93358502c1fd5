package core

import (
	"maps"
	"testing"

	"gapbench/internal/kernel"
)

// TestReferencesBuiltOncePerInput runs every framework, kernel and mode over
// one input, three trials a cell: with Verify on, the input holds one oracle
// answer per BFS and SSSP source, per BC root set, and per CC and TC input,
// and none for PR; with Verify off it holds none, and after Close none.
func TestReferencesBuiltOncePerInput(t *testing.T) {
	in, err := LoadInput(GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	modes := []kernel.Mode{kernel.Baseline, kernel.Optimized}
	for _, verify := range []bool{false, true} {
		r := &Runner{Trials: 3, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: verify}
		results, err := r.RunSuite(Frameworks(), []*Input{in}, modes, nil, nil)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := len(Frameworks()) * len(modes) * len(Kernels); len(results) != want {
			t.Fatalf("Verify %v: %d cells, want %d", verify, len(results), want)
		}
		for _, res := range results {
			if res.Status != OK {
				t.Errorf("Verify %v: %s: %s: %s", verify, res.CellID(), res.Status, res.Err)
			}
		}
		want := map[Kernel]int{}
		if verify {
			want = map[Kernel]int{BFS: 3, SSSP: 3, CC: 1, BC: 3, TC: 1}
		}
		if got := referenceCounts(in); !maps.Equal(got, want) {
			t.Errorf("Verify %v: references per kernel %v, want %v", verify, got, want)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := referenceCounts(in); len(got) != 0 {
		t.Errorf("closed input holds references %v", got)
	}
}

// referenceCounts counts the input's oracle answers by kernel.
func referenceCounts(in *Input) map[Kernel]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	counts := map[Kernel]int{}
	for key := range in.references {
		counts[key.kernel]++
	}
	return counts
}
