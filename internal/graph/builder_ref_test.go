package graph_test

// builder_ref_test.go: differential tests for the counting-sort ingest
// pipeline. The pre-pipeline builder — comparison sort over the whole edge
// list by (U,V,W), serial global dedup, serial histogram — is retained here
// verbatim (serialized) as the executable specification. The new pipeline
// must produce *byte-identical* CSR arrays on every input: same index, same
// neighbor order, same surviving weight for every duplicate group. Anything
// weaker would silently change benchmark graphs between releases.

import (
	"math/rand"
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

// TestUndirectedMatchesReference pins the direct CSR symmetrization against
// the old path: materialize every stored arc of the directed graph as an
// edge list and rebuild undirected.
func TestUndirectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1ff))
	for _, weighted := range []bool{false, true} {
		for trial := 0; trial < 6; trial++ {
			n := int32(2 + rng.Int31n(120))
			edges := randomEdges(rng, n, 10*int(n))
			if !weighted {
				for i := range edges {
					edges[i].W = 0
				}
			}
			g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: n, Directed: true})
			if err != nil {
				t.Fatal(err)
			}
			if !weighted {
				g2, err := graph.Build(edgesOnly(edges), graph.BuildOptions{NumNodes: n, Directed: true})
				if err != nil {
					t.Fatal(err)
				}
				g = g2
			}

			// Reference: old Undirected() — re-list the stored arcs, rebuild.
			var stored []graph.WEdge
			for u := int32(0); u < n; u++ {
				ns := g.OutNeighbors(u)
				ws := g.OutWeights(u)
				for i, v := range ns {
					w := graph.Weight(0)
					if ws != nil {
						w = ws[i]
					}
					stored = append(stored, graph.WEdge{U: u, V: v, W: w})
				}
			}
			rg, err := refBuildWeighted(t, stored, graph.BuildOptions{NumNodes: n, Directed: false})
			if err != nil {
				t.Fatal(err)
			}
			ug := g.Undirected()
			if ug.Directed() {
				t.Fatal("Undirected returned a directed graph")
			}
			assertCSREqual(t, "undirected", ug, rg, weighted)
		}
	}
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
