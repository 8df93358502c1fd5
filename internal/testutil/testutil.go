// Package testutil provides the shared conformance suite every framework
// reproduction must pass: all six kernels, on crafted corner-case graphs and
// small instances of all five generated benchmark topologies, validated
// against the serial oracles in internal/verify. This mirrors the paper's
// cross-validation, where each team's results were checked by the others.
package testutil

import (
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/verify"
)

// Case is one named test graph.
type Case struct {
	Name  string
	Graph *graph.Graph
}

// mustBuild builds a graph from edges or fails the test.
func mustBuild(tb testing.TB, edges []graph.WEdge, opt graph.BuildOptions) *graph.Graph {
	tb.Helper()
	g, err := graph.BuildWeighted(edges, opt)
	if err != nil {
		tb.Fatalf("building test graph: %v", err)
	}
	return g
}

// CraftedGraphs returns small hand-built graphs covering structural corner
// cases: paths, cycles, stars, cliques, disconnected pieces, an empty graph,
// and a single vertex.
func CraftedGraphs(tb testing.TB) []Case {
	tb.Helper()
	var cases []Case

	// Directed path 0->1->2->3->4 with varying weights.
	cases = append(cases, Case{"path5", mustBuild(tb, []graph.WEdge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 7}, {U: 3, V: 4, W: 2},
	}, graph.BuildOptions{NumNodes: 5, Directed: true})})

	// Undirected cycle of 6.
	cycle := make([]graph.WEdge, 0, 6)
	for i := int32(0); i < 6; i++ {
		cycle = append(cycle, graph.WEdge{U: i, V: (i + 1) % 6, W: graph.Weight(i%3 + 1)})
	}
	cases = append(cases, Case{"cycle6", mustBuild(tb, cycle, graph.BuildOptions{NumNodes: 6, Directed: false})})

	// Undirected star: hub 0 with 9 leaves.
	star := make([]graph.WEdge, 0, 9)
	for i := int32(1); i < 10; i++ {
		star = append(star, graph.WEdge{U: 0, V: i, W: 5})
	}
	cases = append(cases, Case{"star10", mustBuild(tb, star, graph.BuildOptions{NumNodes: 10, Directed: false})})

	// Undirected clique of 8 (28 edges, 56 triangles).
	var clique []graph.WEdge
	for i := int32(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			clique = append(clique, graph.WEdge{U: i, V: j, W: graph.Weight((i+j)%7 + 1)})
		}
	}
	cases = append(cases, Case{"clique8", mustBuild(tb, clique, graph.BuildOptions{NumNodes: 8, Directed: false})})

	// Two disconnected triangles plus two isolated vertices.
	cases = append(cases, Case{"disconnected", mustBuild(tb, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 3},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 2}, {U: 5, V: 3, W: 3},
	}, graph.BuildOptions{NumNodes: 8, Directed: false})})

	// Directed graph where the shortest weighted path is not the shortest
	// hop path: 0->1->2->3 (weights 1,1,1) vs 0->3 (weight 10).
	cases = append(cases, Case{"weightedDetour", mustBuild(tb, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 10},
		{U: 3, V: 0, W: 1},
	}, graph.BuildOptions{NumNodes: 4, Directed: true})})

	// Directed graph with a vertex unreachable from 0 and a dangling vertex
	// (no out-edges), exercising BFS -1 parents and PR dangling mass.
	cases = append(cases, Case{"unreachable", mustBuild(tb, []graph.WEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 2}, {U: 3, V: 0, W: 2},
	}, graph.BuildOptions{NumNodes: 5, Directed: true})})

	// Single vertex, no edges.
	cases = append(cases, Case{"singleton", mustBuild(tb, nil, graph.BuildOptions{NumNodes: 1, Directed: false})})

	// Two cliques joined by a bridge: communities with a cut vertex pair,
	// high-BC bridge endpoints.
	var bridge []graph.WEdge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			bridge = append(bridge,
				graph.WEdge{U: i, V: j, W: graph.Weight(i + j + 1)},
				graph.WEdge{U: i + 5, V: j + 5, W: graph.Weight(i + j + 2)})
		}
	}
	bridge = append(bridge, graph.WEdge{U: 4, V: 5, W: 1})
	cases = append(cases, Case{"twoCliquesBridge", mustBuild(tb, bridge, graph.BuildOptions{NumNodes: 10, Directed: false})})

	// Complete bipartite K3,4: triangle-free but dense, stresses TC's
	// intersection logic and BFS's two-level structure.
	var bip []graph.WEdge
	for i := int32(0); i < 3; i++ {
		for j := int32(3); j < 7; j++ {
			bip = append(bip, graph.WEdge{U: i, V: j, W: graph.Weight(i*7 + j)})
		}
	}
	cases = append(cases, Case{"bipartiteK34", mustBuild(tb, bip, graph.BuildOptions{NumNodes: 7, Directed: false})})

	// A long weighted path where delta-stepping crosses many buckets, plus a
	// shortcut chord whose weight makes it a trap for greedy relaxation.
	var lp []graph.WEdge
	for i := int32(0); i < 30; i++ {
		lp = append(lp, graph.WEdge{U: i, V: i + 1, W: 200})
	}
	lp = append(lp, graph.WEdge{U: 0, V: 30, W: 255})
	cases = append(cases, Case{"bucketPath", mustBuild(tb, lp, graph.BuildOptions{NumNodes: 31, Directed: true})})

	// Directed star-of-stars: hub -> spokes -> leaves, skewed out-degrees
	// with a three-level BFS from the hub.
	var sos []graph.WEdge
	for sp := int32(1); sp <= 6; sp++ {
		sos = append(sos, graph.WEdge{U: 0, V: sp, W: 2})
		for l := int32(0); l < 4; l++ {
			sos = append(sos, graph.WEdge{U: sp, V: 7 + (sp-1)*4 + l, W: 3})
		}
	}
	cases = append(cases, Case{"starOfStars", mustBuild(tb, sos, graph.BuildOptions{NumNodes: 31, Directed: true})})

	return cases
}

// GeneratedGraphs returns small instances of the five benchmark topologies.
func GeneratedGraphs(tb testing.TB, scale int) []Case {
	tb.Helper()
	var cases []Case
	for _, name := range generate.Names {
		g, err := generate.ByName(name, scale, 42)
		if err != nil {
			tb.Fatalf("generating %s: %v", name, err)
		}
		cases = append(cases, Case{name, g})
	}
	return cases
}

// AllGraphs returns crafted plus generated test graphs. Under -short (the
// race-detector smoke tier in scripts/check.sh) only the crafted corner-case
// graphs run: they exercise every structural edge case in milliseconds,
// which is what a seconds-budget race sweep needs.
func AllGraphs(tb testing.TB) []Case {
	crafted := CraftedGraphs(tb)
	if testing.Short() {
		return crafted
	}
	return append(crafted, GeneratedGraphs(tb, 8)...)
}

// Sources picks deterministic test sources for a graph: the first vertex
// with out-degree > 0 plus a couple of probes around the id space.
func Sources(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	var out []graph.NodeID
	for _, cand := range []graph.NodeID{0, n / 3, n / 2, n - 1} {
		if g.OutDegree(cand) > 0 || n == 1 {
			out = append(out, cand)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// BCSources returns up to kernel.BCSources roots for BC trials.
func BCSources(g *graph.Graph) []graph.NodeID {
	src := Sources(g)
	if len(src) > kernel.BCSources {
		src = src[:kernel.BCSources]
	}
	return src
}

// RunConformance exercises all six kernels of f on all test graphs, in both
// Baseline and Optimized modes, checking every result against the oracles.
func RunConformance(t *testing.T, f kernel.Framework) {
	t.Helper()
	for _, mode := range []kernel.Mode{kernel.Baseline, kernel.Optimized} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for _, tc := range AllGraphs(t) {
				tc := tc
				t.Run(tc.Name, func(t *testing.T) {
					t.Parallel()
					checkAllKernels(t, f, tc.Graph, mode, tc.Name)
				})
			}
		})
	}
}

func checkAllKernels(t *testing.T, f kernel.Framework, g *graph.Graph, mode kernel.Mode, name string) {
	t.Helper()
	opt := kernel.Options{Mode: mode, UndirectedView: g.Undirected()}
	if mode == kernel.Optimized {
		opt.GraphName = name
		relabeled, _ := graph.DegreeRelabel(nil, opt.UndirectedView)
		opt.RelabeledView = relabeled
	}

	for _, src := range Sources(g) {
		if err := verify.CheckBFS(g, src, f.BFS(g, src, opt)); err != nil {
			t.Errorf("BFS from %d: %v", src, err)
		}
		if g.Weighted() {
			if err := verify.CheckSSSP(g, src, f.SSSP(g, src, opt)); err != nil {
				t.Errorf("SSSP from %d: %v", src, err)
			}
		}
	}
	if err := verify.CheckPR(g, f.PR(g, opt)); err != nil {
		t.Errorf("PR: %v", err)
	}
	if err := verify.CheckCC(g, f.CC(g, opt)); err != nil {
		t.Errorf("CC: %v", err)
	}
	if srcs := BCSources(g); len(srcs) > 0 {
		if err := verify.CheckBC(g, srcs, f.BC(g, srcs, opt)); err != nil {
			t.Errorf("BC from %v: %v", srcs, err)
		}
	}
	if err := verify.CheckTC(g, f.TC(g, opt)); err != nil {
		t.Errorf("TC: %v", err)
	}
}

// RunKernelAcrossWorkers runs one kernel at several worker counts to flush
// out parallelism-dependent bugs.
func RunKernelAcrossWorkers(t *testing.T, f kernel.Framework, g *graph.Graph) {
	t.Helper()
	for _, workers := range []int{1, 2, 7} {
		opt := kernel.Options{Workers: workers, UndirectedView: g.Undirected()}
		for _, src := range Sources(g)[:1] {
			if err := verify.CheckBFS(g, src, f.BFS(g, src, opt)); err != nil {
				t.Errorf("workers=%d BFS: %v", workers, err)
			}
			if g.Weighted() {
				if err := verify.CheckSSSP(g, src, f.SSSP(g, src, opt)); err != nil {
					t.Errorf("workers=%d SSSP: %v", workers, err)
				}
			}
		}
		if err := verify.CheckCC(g, f.CC(g, opt)); err != nil {
			t.Errorf("workers=%d CC: %v", workers, err)
		}
		if err := verify.CheckTC(g, f.TC(g, opt)); err != nil {
			t.Errorf("workers=%d TC: %v", workers, err)
		}
	}
}

// Describe asserts that a framework implements the metadata interface and
// has a complete Table III row.
func Describe(t *testing.T, f kernel.Framework) {
	t.Helper()
	d, ok := f.(kernel.Describer)
	if !ok {
		t.Fatalf("%s does not implement kernel.Describer", f.Name())
	}
	alg := d.Algorithms()
	for field, v := range map[string]string{
		"BFS": alg.BFS, "SSSP": alg.SSSP, "CC": alg.CC,
		"PR": alg.PR, "BC": alg.BC, "TC": alg.TC,
	} {
		if v == "" {
			t.Errorf("%s: empty Table III entry for %s", f.Name(), field)
		}
	}
	if len(d.Attributes()) == 0 {
		t.Errorf("%s: empty Table II attributes", f.Name())
	}
}
