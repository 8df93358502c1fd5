package graph_test

// builder_ref_test.go: differential tests for the counting-sort ingest
// pipeline. The pre-pipeline builder — comparison sort over the whole edge
// list by (U,V,W), serial global dedup, serial histogram — is retained here
// verbatim (serialized) as the executable specification. The new pipeline
// must produce *byte-identical* CSR arrays on every input: same index, same
// neighbor order, same surviving weight for every duplicate group. Anything
// weaker would silently change benchmark graphs between releases.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// refGraph is the reference builder's output: plain CSR arrays.
type refGraph struct {
	n                   int32
	outIndex, inIndex   []int64
	outNeigh, inNeigh   []graph.NodeID
	outWeight, inWeight []graph.Weight
}

// refBuildCSR is the old buildCSR, kept serial: sort the directed edge list
// by (U,V,W), keep the first of each (U,V) run (the minimum weight), pack.
func refBuildCSR(n int32, edges []graph.WEdge) ([]int64, []graph.NodeID, []graph.Weight) {
	edges = append([]graph.WEdge(nil), edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].W < edges[j].W
	})
	kept := edges[:0]
	for i, e := range edges {
		if i > 0 && e.U == edges[i-1].U && e.V == edges[i-1].V {
			continue
		}
		kept = append(kept, e)
	}
	index := make([]int64, n+1)
	for _, e := range kept {
		index[e.U+1]++
	}
	for i := int32(0); i < n; i++ {
		index[i+1] += index[i]
	}
	neigh := make([]graph.NodeID, len(kept))
	weight := make([]graph.Weight, len(kept))
	for i, e := range kept {
		neigh[i] = e.V
		weight[i] = e.W
	}
	return index, neigh, weight
}

// refBuildWeighted is the old BuildWeighted: validation and NumNodes
// inference in input order, self-loop dropping, undirected doubling, and a
// transposed second refBuildCSR pass for the directed in-CSR.
func refBuildWeighted(t *testing.T, edges []graph.WEdge, opt graph.BuildOptions) (*refGraph, error) {
	t.Helper()
	n := opt.NumNodes
	for _, e := range edges {
		if e.U < 0 || e.V < 0 {
			return nil, errNegative
		}
		if opt.NumNodes > 0 && (e.U >= opt.NumNodes || e.V >= opt.NumNodes) {
			return nil, errOutOfRange
		}
		if opt.NumNodes == 0 {
			if e.U >= n {
				n = e.U + 1
			}
			if e.V >= n {
				n = e.V + 1
			}
		}
	}
	if n < 0 {
		return nil, errBadCount
	}
	work := make([]graph.WEdge, 0, len(edges)*2)
	for _, e := range edges {
		if e.U == e.V && !opt.KeepSelfLoops {
			continue
		}
		work = append(work, e)
		if !opt.Directed && e.U != e.V {
			work = append(work, graph.WEdge{U: e.V, V: e.U, W: e.W})
		}
	}
	rg := &refGraph{n: n}
	rg.outIndex, rg.outNeigh, rg.outWeight = refBuildCSR(n, work)
	if opt.Directed {
		tr := make([]graph.WEdge, len(work))
		for i, e := range work {
			tr[i] = graph.WEdge{U: e.V, V: e.U, W: e.W}
		}
		rg.inIndex, rg.inNeigh, rg.inWeight = refBuildCSR(n, tr)
	} else {
		rg.inIndex, rg.inNeigh, rg.inWeight = rg.outIndex, rg.outNeigh, rg.outWeight
	}
	return rg, nil
}

// Sentinel classes for reference-side validation failures; the differential
// assertion only requires err/no-err agreement plus the real builder's
// message content, which TestBuildRejectsBadInput already pins.
var (
	errNegative   = errClass("negative node id")
	errOutOfRange = errClass("edge out of range")
	errBadCount   = errClass("invalid node count")
)

type errClass string

func (e errClass) Error() string { return string(e) }

// assertCSREqual fails unless the built graph's arrays are identical to the
// reference's. weighted selects whether weight arrays must match or both be
// absent.
func assertCSREqual(t *testing.T, label string, g *graph.Graph, rg *refGraph, weighted bool) {
	t.Helper()
	if g.NumNodes() != rg.n {
		t.Fatalf("%s: NumNodes = %d, reference %d", label, g.NumNodes(), rg.n)
	}
	outIdx, outNeigh := g.RawOut()
	inIdx, inNeigh := g.RawIn()
	if !slices.Equal(outIdx, rg.outIndex) {
		t.Fatalf("%s: out index mismatch\n got %v\nwant %v", label, outIdx, rg.outIndex)
	}
	if !slices.Equal(outNeigh, rg.outNeigh) {
		t.Fatalf("%s: out neighbors mismatch\n got %v\nwant %v", label, outNeigh, rg.outNeigh)
	}
	if !slices.Equal(inIdx, rg.inIndex) {
		t.Fatalf("%s: in index mismatch\n got %v\nwant %v", label, inIdx, rg.inIndex)
	}
	if !slices.Equal(inNeigh, rg.inNeigh) {
		t.Fatalf("%s: in neighbors mismatch\n got %v\nwant %v", label, inNeigh, rg.inNeigh)
	}
	if weighted {
		if !slices.Equal(g.RawOutWeights(), rg.outWeight) {
			t.Fatalf("%s: out weights mismatch\n got %v\nwant %v", label, g.RawOutWeights(), rg.outWeight)
		}
		if !slices.Equal(g.RawInWeights(), rg.inWeight) {
			t.Fatalf("%s: in weights mismatch\n got %v\nwant %v", label, g.RawInWeights(), rg.inWeight)
		}
	} else if g.RawOutWeights() != nil || g.RawInWeights() != nil {
		t.Fatalf("%s: unweighted build retained weights", label)
	}
}

// randomEdges draws m edges over n vertices with deliberately nasty
// structure: a high duplicate rate (small vertex range), frequent self-loops,
// and weights from a tiny range so duplicate groups tie on weight.
func randomEdges(rng *rand.Rand, n int32, m int) []graph.WEdge {
	edges := make([]graph.WEdge, m)
	for i := range edges {
		u := graph.NodeID(rng.Int31n(n))
		v := graph.NodeID(rng.Int31n(n))
		if rng.Intn(8) == 0 {
			v = u // forced self-loop
		}
		edges[i] = graph.WEdge{U: u, V: v, W: graph.Weight(1 + rng.Int31n(4))}
	}
	return edges
}

func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	type shape struct {
		name string
		n    int32
		m    int
	}
	shapes := []shape{
		{"empty", 1, 0},
		{"singleton", 1, 4}, // only self-loops possible
		{"pair", 2, 12},     // dense duplicates
		{"small", 7, 40},
		{"medium", 64, 700},
		{"large", 300, 5000},
	}
	for _, sh := range shapes {
		for _, directed := range []bool{false, true} {
			for _, keep := range []bool{false, true} {
				for _, fixN := range []bool{false, true} {
					edges := randomEdges(rng, sh.n, sh.m)
					opt := graph.BuildOptions{Directed: directed, KeepSelfLoops: keep}
					if fixN {
						opt.NumNodes = sh.n
					}
					label := sh.name
					if directed {
						label += "/directed"
					}
					if keep {
						label += "/loops"
					}
					if fixN {
						label += "/fixedN"
					}
					rg, refErr := refBuildWeighted(t, edges, opt)
					g, err := graph.BuildWeighted(edges, opt)
					if (err != nil) != (refErr != nil) {
						t.Fatalf("%s: err = %v, reference err = %v", label, err, refErr)
					}
					if err != nil {
						continue
					}
					assertCSREqual(t, label+"/weighted", g, rg, true)

					// Unweighted Build over the same endpoints must match the
					// reference with all weights forced to zero.
					ue := make([]graph.Edge, len(edges))
					ze := make([]graph.WEdge, len(edges))
					for i, e := range edges {
						ue[i] = graph.Edge{U: e.U, V: e.V}
						ze[i] = graph.WEdge{U: e.U, V: e.V}
					}
					urg, _ := refBuildWeighted(t, ze, opt)
					ug, err := graph.Build(ue, opt)
					if err != nil {
						t.Fatalf("%s: Build: %v", label, err)
					}
					assertCSREqual(t, label+"/unweighted", ug, urg, false)
				}
			}
		}
	}
}

func TestBuildErrorAgreementWithReference(t *testing.T) {
	cases := []struct {
		name  string
		edges []graph.WEdge
		opt   graph.BuildOptions
	}{
		{"negative-u", []graph.WEdge{{U: -1, V: 0}}, graph.BuildOptions{}},
		{"negative-v", []graph.WEdge{{U: 0, V: -3}}, graph.BuildOptions{Directed: true}},
		{"out-of-range", []graph.WEdge{{U: 0, V: 5}}, graph.BuildOptions{NumNodes: 3}},
		{"overflow-wrap", []graph.WEdge{{U: 0, V: 1<<31 - 1}}, graph.BuildOptions{}},
	}
	for _, c := range cases {
		_, refErr := refBuildWeighted(t, c.edges, c.opt)
		_, err := graph.BuildWeighted(c.edges, c.opt)
		if (err != nil) != (refErr != nil) {
			t.Errorf("%s: err = %v, reference err = %v", c.name, err, refErr)
		}
	}
}

// TestBuildAfterGOMAXPROCSShrinks: the build runs at the width of its
// machine, which par.Default() fixed when it was first built. Per-slot
// scratch sized by the current GOMAXPROCS instead overflowed
// once GOMAXPROCS dropped below that width (`go test -cpu 4,1`).
func TestBuildAfterGOMAXPROCSShrinks(t *testing.T) {
	if par.Default().Size() == 1 {
		t.Skip("the default machine has one worker; GOMAXPROCS cannot drop below it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	edges := randomEdges(rand.New(rand.NewSource(7)), 64, 700)
	g, err := graph.BuildWeighted(edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rg, _ := refBuildWeighted(t, edges, graph.BuildOptions{})
	assertCSREqual(t, "GOMAXPROCS=1", g, rg, true)
}

// TestUndirectedMatchesReference pins the per-row merge against the old
// path: materialize every stored arc of the directed graph as an edge list
// and rebuild undirected. Besides random graphs it covers stored self-loops
// (KeepSelfLoops), reciprocal arcs with unequal weights (the smaller must
// win), isolated vertices, and a graph round-tripped through SaveSG and an
// mmap Load.
func TestUndirectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1ff))
	for _, weighted := range []bool{false, true} {
		for trial := 0; trial < 6; trial++ {
			n := int32(2 + rng.Int31n(120))
			edges := randomEdges(rng, n, 10*int(n))
			opt := graph.BuildOptions{NumNodes: n, Directed: true, KeepSelfLoops: trial%2 == 1}
			checkUndirected(t, fmt.Sprintf("random weighted=%v trial %d", weighted, trial), buildDirected(t, edges, opt, weighted), weighted)
		}
	}

	// Every arc has its reverse, at a different weight: both orders of the
	// smaller weight occur.
	var recip []graph.WEdge
	for i := 0; i < 400; i++ {
		u, v := graph.NodeID(rng.Int31n(60)), graph.NodeID(rng.Int31n(60))
		w := graph.Weight(1 + rng.Int31n(50))
		recip = append(recip, graph.WEdge{U: u, V: v, W: w}, graph.WEdge{U: v, V: u, W: w + 1 + graph.Weight(rng.Int31n(5))})
	}
	g := buildDirected(t, recip, graph.BuildOptions{NumNodes: 60, Directed: true}, true)
	checkUndirected(t, "reciprocal", g, true)
	pair := buildDirected(t, []graph.WEdge{{U: 0, V: 1, W: 9}, {U: 1, V: 0, W: 4}, {U: 1, V: 2, W: 3}, {U: 2, V: 1, W: 8}},
		graph.BuildOptions{Directed: true}, true)
	u := pair.Undirected()
	if !slices.Equal(u.OutWeights(1), []graph.Weight{4, 3}) {
		t.Errorf("reciprocal pair: vertex 1's weights %v, want the smaller of each pair [4 3]", u.OutWeights(1))
	}

	// Isolated vertices: the edges touch only the even ids below 40 of 100.
	var sparse []graph.WEdge
	for i := 0; i < 80; i++ {
		sparse = append(sparse, graph.WEdge{U: 2 * graph.NodeID(rng.Int31n(20)), V: 2 * graph.NodeID(rng.Int31n(20)), W: graph.Weight(1 + rng.Int31n(4))})
	}
	checkUndirected(t, "isolated", buildDirected(t, sparse, graph.BuildOptions{NumNodes: 100, Directed: true}, true), true)

	// A degree-ordered graph after SaveSG and an mmap Load: the view keeps
	// the layout tag.
	path := filepath.Join(t.TempDir(), "directed.sg")
	g = buildDirected(t, randomEdges(rng, 90, 900),
		graph.BuildOptions{NumNodes: 90, Directed: true, KeepSelfLoops: true, Layout: graph.LayoutDegree}, true)
	if err := g.SaveSG(path); err != nil {
		t.Fatal(err)
	}
	m, err := graph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Arena().Mapped() {
		t.Fatal("Load did not map the file")
	}
	checkUndirected(t, "mmap", m, true)
}

// buildDirected builds edges as a weighted directed graph, or, when
// !weighted, through the unweighted builder.
func buildDirected(t *testing.T, edges []graph.WEdge, opt graph.BuildOptions, weighted bool) *graph.Graph {
	t.Helper()
	var g *graph.Graph
	var err error
	if weighted {
		g, err = graph.BuildWeighted(edges, opt)
	} else {
		g, err = graph.Build(edgesOnly(edges), opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkUndirected compares g.Undirected() with the old path's result, and
// its layout tag with g's.
func checkUndirected(t *testing.T, label string, g *graph.Graph, weighted bool) {
	t.Helper()
	var stored []graph.WEdge
	for u := int32(0); u < g.NumNodes(); u++ {
		ws := g.OutWeights(u)
		for i, v := range g.OutNeighbors(u) {
			w := graph.Weight(0)
			if ws != nil {
				w = ws[i]
			}
			stored = append(stored, graph.WEdge{U: u, V: v, W: w})
		}
	}
	rg, err := refBuildWeighted(t, stored, graph.BuildOptions{NumNodes: g.NumNodes(), Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	ug := g.Undirected()
	if ug.Directed() || ug.Layout() != g.Layout() {
		t.Fatalf("%s: Undirected is directed=%v with layout %v, want undirected with %v", label, ug.Directed(), ug.Layout(), g.Layout())
	}
	assertCSREqual(t, label, ug, rg, weighted)
}

func edgesOnly(we []graph.WEdge) []graph.Edge {
	out := make([]graph.Edge, len(we))
	for i, e := range we {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

// TestDegreeRelabelMatchesStableSortReference pins the counting-sort
// permutation against the old sort.SliceStable ordering: decreasing degree,
// equal degrees keep ascending vertex ids.
func TestDegreeRelabelMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e37))
	for trial := 0; trial < 8; trial++ {
		n := int32(1 + rng.Int31n(200))
		g, err := graph.Build(edgesOnly(randomEdges(rng, n, 6*int(n))),
			graph.BuildOptions{NumNodes: n, Directed: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		_, perm := graph.DegreeRelabel(par.Default(), g)

		// Reference permutation via a stable comparison sort.
		order := make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		sort.SliceStable(order, func(i, j int) bool {
			return g.OutDegree(order[i]) > g.OutDegree(order[j])
		})
		want := make([]graph.NodeID, n)
		for newID, old := range order {
			want[old] = graph.NodeID(newID)
		}
		if !slices.Equal(perm, want) {
			t.Fatalf("trial %d: perm mismatch\n got %v\nwant %v", trial, perm, want)
		}
	}
}
