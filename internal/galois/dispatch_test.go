package galois

import (
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// TestDiameterDispatch checks the §V Baseline heuristic and its Optimized
// override: power-law graphs are assumed low-diameter (bulk-synchronous),
// everything else high-diameter (asynchronous) — which deliberately
// mislabels Urand in Baseline mode, and is corrected by name in Optimized
// mode.
func TestDiameterDispatch(t *testing.T) {
	cases := []struct {
		name         string
		baselineHigh bool // assumed high diameter under Baseline rules
	}{
		{"Road", true},
		{"Twitter", false},
		{"Kron", false},
		{"Urand", true}, // the §V-A mislabel: uniform degrees read as high diameter
	}
	for _, c := range cases {
		g, err := generate.ByName(c.name, 10, 99)
		if err != nil {
			t.Fatal(err)
		}
		base := kernel.Options{Mode: kernel.Baseline, UndirectedView: g.Undirected()}
		if got := assumeHighDiameter(g, base); got != c.baselineHigh {
			t.Errorf("%s: baseline high-diameter = %t, want %t", c.name, got, c.baselineHigh)
		}
		// Prepare classifies at load, and a cell handed its state follows
		// it: flipping the state flips the dispatch.
		state := New().Prepare(g, g.Undirected())
		if state != c.baselineHigh {
			t.Errorf("%s: Prepare classified high-diameter = %v, want %t", c.name, state, c.baselineHigh)
		}
		if got := assumeHighDiameter(g, kernel.Options{Prepared: !c.baselineHigh}); got == c.baselineHigh {
			t.Errorf("%s: dispatch ignored the prepared classification", c.name)
		}
		// Optimized mode knows the graph by name: only Road is high-diameter.
		opt := kernel.Options{Mode: kernel.Optimized, GraphName: c.name, UndirectedView: g.Undirected()}
		if got := assumeHighDiameter(g, opt); got != (c.name == "Road") {
			t.Errorf("%s: optimized high-diameter = %t", c.name, got)
		}
	}
}

// TestAsyncAndSyncBFSAgree cross-checks the two BFS variants' semantics on
// the graph each is NOT normally chosen for.
func TestAsyncAndSyncBFSAgree(t *testing.T) {
	for _, name := range []string{"Road", "Kron"} {
		g, err := generate.ByName(name, 9, 3)
		if err != nil {
			t.Fatal(err)
		}
		var src int32
		for g.OutDegree(src) == 0 {
			src++
		}
		a := asyncBFS(par.Default(), g, src)
		s := syncBFS(par.Default(), g, src)
		for v := range a {
			if (a[v] >= 0) != (s[v] >= 0) {
				t.Fatalf("%s: reachability of %d differs between variants", name, v)
			}
		}
	}
}

// TestBulkAndAsyncSSSPAgree does the same for the delta-stepping variants.
func TestBulkAndAsyncSSSPAgree(t *testing.T) {
	g, err := generate.Web(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	var src int32
	for g.OutDegree(src) == 0 {
		src++
	}
	bulk := bulkSSSP(par.Default(), g, src, 16)
	async := asyncSSSP(par.Default(), g, src, 16)
	for v := range bulk {
		if bulk[v] != async[v] {
			t.Fatalf("dist[%d]: bulk %d != async %d", v, bulk[v], async[v])
		}
	}
}

// TestEdgeBlockedAfforestAgrees validates the Optimized-mode Web variant
// against the per-vertex phase.
func TestEdgeBlockedAfforestAgrees(t *testing.T) {
	g, err := generate.Web(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain := afforest(par.Default(), g, false)
	blocked := afforest(par.Default(), g, true)
	canon := func(labels []int32) map[int32]int32 {
		m := map[int32]int32{}
		for v, l := range labels {
			if _, ok := m[l]; !ok {
				m[l] = int32(v)
			}
		}
		return m
	}
	cp, cb := canon(plain), canon(blocked)
	for v := range plain {
		if cp[plain[v]] != cb[blocked[v]] {
			t.Fatalf("partitions differ at %d", v)
		}
	}
}
