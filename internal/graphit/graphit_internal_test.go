package graphit

import (
	"math"
	"testing"

	"gapbench/internal/frontier"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

// The vertex-set tests below drive the shared frontier library with the two
// layouts GraphIt's schedules choose between.

func TestVertexSetConversions(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	vs := frontier.FromList(100, []graph.NodeID{3, 50, 99})
	if vs.Size() != 3 {
		t.Fatalf("Size = %d", vs.Size())
	}
	bv := vs.ToBitmap(par.Default())
	if bv.Size() != 3 || !bv.Contains(50) || bv.Contains(4) {
		t.Fatal("bitvector conversion wrong")
	}
	back := bv.ToList(par.Default())
	if back.Size() != 3 {
		t.Fatalf("round-trip Size = %d", back.Size())
	}
	got := map[graph.NodeID]bool{}
	for _, v := range back.List() {
		got[v] = true
	}
	for _, v := range []graph.NodeID{3, 50, 99} {
		if !got[v] {
			t.Fatalf("round trip lost %d", v)
		}
	}
}

func TestEdgesetApplyPush(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	front := frontier.FromList(3, []graph.NodeID{0})
	visited := make([]bool, 3)
	visited[0] = true
	for _, layout := range []frontier.Layout{frontier.SparseList, frontier.Bitmap} {
		v2 := append([]bool(nil), visited...)
		next := frontier.Push(par.Default(), g, front, layout, func(u, v graph.NodeID) bool {
			if !v2[v] {
				v2[v] = true
				return true
			}
			return false
		})
		if next.Size() != 2 {
			t.Fatalf("layout %d: next size = %d, want 2", layout, next.Size())
		}
	}
}

func TestEdgesetApplyPull(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	front := frontier.FromList(3, []graph.NodeID{0})
	parent := []graph.NodeID{0, -1, -1}
	next := frontier.Pull(par.Default(), g, front,
		func(v graph.NodeID) bool { return parent[v] < 0 },
		func(u, v graph.NodeID) bool { parent[v] = u; return true })
	if next.Size() != 2 {
		t.Fatalf("pull next size = %d, want 2", next.Size())
	}
	if parent[1] != 0 || parent[2] != 0 {
		t.Fatalf("parents = %v", parent)
	}
}

func TestAutotuneSchedules(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	small, _ := generate.Kron(8, 1)
	if s := autotune("bfs", small); s.Direction != dirOpt {
		t.Error("bfs autotune should direction-optimize")
	}
	if s := autotune("sssp", small); s != (schedule{}) {
		t.Errorf("sssp autotune = %+v, want no knobs (always bucket-fused, Table III)", s)
	}
	if s := autotune("pr", small); s.CacheTiling {
		t.Error("small graph should not tile")
	}
	if s := autotune("bc", small); s.Frontier != frontier.Bitmap {
		t.Error("bc autotune should use a bitvector frontier")
	}
}

func TestSpecializeSchedules(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, _ := generate.Road(10, 1)
	opt := kernel.Options{Mode: kernel.Optimized, GraphName: "Road"}
	if s := scheduleFor("bfs", g, opt); s.Direction != pushOnly {
		t.Error("optimized Road BFS should be push-only (§V-A)")
	}
	if s := scheduleFor("cc", g, opt); !s.ShortCircuit {
		t.Error("optimized Road CC should short-circuit (§V-C)")
	}
	if s := scheduleFor("bc", g, opt); s.Frontier != frontier.SparseList {
		t.Error("optimized Road BC should drop the bitvector (§V-E)")
	}
	web := kernel.Options{Mode: kernel.Optimized, GraphName: "Web"}
	if s := scheduleFor("pr", g, web); s.CacheTiling {
		t.Error("optimized Web PR should not tile (§V-D: Web has good locality)")
	}
	// Baseline never consults the graph name.
	base := kernel.Options{Mode: kernel.Baseline, GraphName: ""}
	if s := scheduleFor("bfs", g, base); s.Direction != dirOpt {
		t.Error("baseline BFS must stay direction-optimizing")
	}
}

// TestScheduleTable pins the whole schedule table:the value scheduleFor
// returns for every (graph, kernel, rule set) at one n below the tiling
// threshold (2^12) and one above it (2^16, gapmark's Road-16). Baseline rows
// are graph-independent: the graph name is passed and must be ignored. SSSP
// has no schedule (always bucket-fused, Table III), and CC reads only
// ShortCircuit. Each Optimized row names the section of the paper, or the
// measurement, it comes from.
func TestScheduleTable(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	type pair struct{ small, large schedule }
	same := func(s schedule) pair { return pair{s, s} }
	sparse := schedule{Direction: dirOpt, Frontier: frontier.SparseList}
	push := schedule{Direction: pushOnly, Frontier: frontier.SparseList}
	bitmap := schedule{Direction: dirOpt, Frontier: frontier.Bitmap}
	tiled := pair{schedule{CacheTiling: true, NumSegments: 1}, schedule{CacheTiling: true, NumSegments: 2}}
	untiled := pair{schedule{NumSegments: 1}, schedule{NumSegments: 2}}
	baseline := map[string]pair{
		"bfs":  same(sparse),
		"sssp": same(schedule{}),
		"pr":   {schedule{NumSegments: 1}, schedule{CacheTiling: true, NumSegments: 2}},
		"cc":   same(schedule{}),
		"bc":   same(bitmap),
	}
	optimized := []struct {
		graph, kernel string
		want          pair
		why           string
	}{
		{"Road", "bfs", same(push), "§V-A: always push on Road"},
		{"Road", "sssp", same(schedule{}), "Table III: delta-stepping is always bucket-fused"},
		{"Road", "pr", untiled, "measured: untiled beat tiled at Road-16 (EXPERIMENTS.md, GraphIt's schedule table)"},
		{"Road", "cc", same(schedule{ShortCircuit: true}), "§V-C: short-circuit label chains on Road"},
		{"Road", "bc", same(sparse), "§V-E: no bitvector frontier on Road"},
		{"Twitter", "bfs", same(sparse), "§V-A: direction optimization off Road"},
		{"Twitter", "sssp", same(schedule{}), "Table III: delta-stepping is always bucket-fused"},
		{"Twitter", "pr", tiled, "§V-D: tiling pays off Web"},
		{"Twitter", "cc", same(schedule{}), "§V-C: short-circuit only on Road"},
		{"Twitter", "bc", same(bitmap), "§V-E: bitvector frontier off Road"},
		{"Web", "bfs", same(push), "measured: push-only beat direction optimization at Web-14 (EXPERIMENTS.md, GraphIt's schedule table)"},
		{"Web", "sssp", same(schedule{}), "Table III: delta-stepping is always bucket-fused"},
		{"Web", "pr", untiled, "§V-D: Web had good locality"},
		{"Web", "cc", same(schedule{}), "§V-C: short-circuit only on Road"},
		{"Web", "bc", same(bitmap), "§V-E: bitvector frontier off Road"},
		{"Kron", "bfs", same(sparse), "§V-A: direction optimization off Road"},
		{"Kron", "sssp", same(schedule{}), "Table III: delta-stepping is always bucket-fused"},
		{"Kron", "pr", tiled, "§V-D: tiling pays off Web"},
		{"Kron", "cc", same(schedule{}), "§V-C: short-circuit only on Road"},
		{"Kron", "bc", same(bitmap), "§V-E: bitvector frontier off Road"},
		{"Urand", "bfs", same(sparse), "§V-A: direction optimization off Road"},
		{"Urand", "sssp", same(schedule{}), "Table III: delta-stepping is always bucket-fused"},
		{"Urand", "pr", tiled, "§V-D: tiling pays off Web"},
		{"Urand", "cc", same(schedule{}), "§V-C: short-circuit only on Road"},
		{"Urand", "bc", same(bitmap), "§V-E: bitvector frontier off Road"},
	}
	// scheduleFor reads only the vertex count; one edge fixes it.
	withN := func(n graph.NodeID) *graph.Graph {
		g, err := graph.Build([]graph.Edge{{U: 0, V: n - 1}}, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small, large := withN(1<<12), withN(1<<16)
	check := func(g *graph.Graph, kernelName string, opt kernel.Options, want schedule, why string) {
		t.Helper()
		if got := scheduleFor(kernelName, g, opt); got != want {
			t.Errorf("%s %s %s n=%d: schedule %+v, want %+v (%s)",
				opt.Mode, opt.GraphName, kernelName, g.NumNodes(), got, want, why)
		}
	}
	for _, row := range optimized {
		opt := kernel.Options{Mode: kernel.Optimized, GraphName: row.graph}
		check(small, row.kernel, opt, row.want.small, row.why)
		check(large, row.kernel, opt, row.want.large, row.why)
		base := baseline[row.kernel]
		opt.Mode = kernel.Baseline
		check(small, row.kernel, opt, base.small, "Baseline: run-time heuristics only")
		check(large, row.kernel, opt, base.large, "Baseline: run-time heuristics only")
	}
	if len(optimized) != 5*len(baseline) {
		t.Fatalf("table has %d Optimized rows, want 5 graphs x %d kernels", len(optimized), len(baseline))
	}
	// An unnamed input gets the Baseline heuristics even in Optimized mode.
	for k, base := range baseline {
		check(large, k, kernel.Options{Mode: kernel.Optimized}, base.large, "Optimized, unnamed input")
	}
}

func TestSegmentsPartitionInEdges(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Kron(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	segs := buildSegments(g, 4)
	if len(segs) != 4 {
		t.Fatalf("segments = %d", len(segs))
	}
	n := int(g.NumNodes())
	width := (n + 3) / 4
	var total int64
	for si, seg := range segs {
		for v := 0; v < n; v++ {
			row := seg.neigh[seg.index[v]:seg.index[v+1]]
			total += int64(len(row))
			for _, u := range row {
				if int(u)/width != si {
					t.Fatalf("segment %d holds source %d (width %d)", si, u, width)
				}
			}
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("segments hold %d edges, graph has %d", total, g.NumEdges())
	}
	// Per-vertex union across segments must equal the in-adjacency.
	for v := 0; v < n; v++ {
		var merged []graph.NodeID
		for _, seg := range segs {
			merged = append(merged, seg.neigh[seg.index[v]:seg.index[v+1]]...)
		}
		want := g.InNeighbors(graph.NodeID(v))
		if len(merged) != len(want) {
			t.Fatalf("vertex %d: segmented in-degree %d, want %d", v, len(merged), len(want))
		}
	}
}

func TestSegmentsForScalesWithN(t *testing.T) {
	if s := segmentsFor(100); s < 1 {
		t.Fatalf("segmentsFor(100) = %d, want >= 1", s)
	}
	small, large := segmentsFor(1<<16), segmentsFor(1<<22)
	if large <= small {
		t.Fatalf("segments must grow with n: %d (2^16) vs %d (2^22)", small, large)
	}
}

// TestTiledPageRankMatchesUntiled runs the segmented sweep — which Road-16
// takes in gapmark under Baseline and Twitter, Kron and Urand take at scale
// in Optimized mode — against the untiled one and the PageRank fixed-point
// check, on one skewed and one high-diameter graph, serial and parallel.
func TestTiledPageRankMatchesUntiled(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	kron, err := generate.Kron(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	road, err := generate.Road(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		m := par.NewMachine(workers)
		for name, g := range map[string]*graph.Graph{"Kron-9": kron, "Road-10": road} {
			want := pr(m, g, schedule{})
			for _, segs := range []int{2, 3, 7} {
				got := pr(m, g, schedule{CacheTiling: true, NumSegments: segs})
				if err := verify.CheckPR(g, got); err != nil {
					t.Errorf("%s, %d workers, %d segments: %v", name, workers, segs, err)
				}
				for v := range want {
					if d := math.Abs(got[v] - want[v]); d > 1e-12 {
						t.Errorf("%s, %d workers, %d segments: rank[%d] = %g, untiled %g",
							name, workers, segs, v, got[v], want[v])
						break
					}
				}
			}
		}
		m.Close()
	}
}

func TestMergeVariantsAgree(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	x := []graph.NodeID{1, 3, 5, 7, 9, 11}
	y := []graph.NodeID{2, 3, 4, 7, 11, 13}
	if a, b := mergeCount(x, y, -1), mergeCountBranchless(x, y, -1); a != b || a != 3 {
		t.Fatalf("merge variants disagree: %d vs %d", a, b)
	}
	if a := mergeCount(x, y, 7); a != 1 { // only 11 above floor 7
		t.Fatalf("floored merge = %d, want 1", a)
	}
	if mergeCount(nil, y, -1) != 0 || mergeCountBranchless(x, nil, -1) != 0 {
		t.Fatal("empty list intersection nonzero")
	}
}

func TestLabelPropShortCircuitEquivalence(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Road(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain := cc(par.Default(), g, schedule{})
	short := cc(par.Default(), g, schedule{ShortCircuit: true})
	// Label values may differ; partition must not.
	canon := func(labels []graph.NodeID) map[graph.NodeID]graph.NodeID {
		m := map[graph.NodeID]graph.NodeID{}
		for v, l := range labels {
			if _, ok := m[l]; !ok {
				m[l] = graph.NodeID(v)
			}
		}
		return m
	}
	cp, cs := canon(plain), canon(short)
	for v := range plain {
		if cp[plain[v]] != cs[short[v]] {
			t.Fatalf("partitions differ at vertex %d", v)
		}
	}
}

func TestVertexSetContainsBothLayouts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp := frontier.FromList(10, []graph.NodeID{2, 7})
	if !sp.Contains(7) || sp.Contains(3) {
		t.Fatal("sparse Contains wrong")
	}
	bv := sp.ToBitmap(par.Default())
	if !bv.Contains(2) || bv.Contains(0) {
		t.Fatal("bitvector Contains wrong")
	}
}
