package verify_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/verify"
)

func buildWeighted(t *testing.T, edges []graph.WEdge, n int32, directed bool) *graph.Graph {
	t.Helper()
	g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: n, Directed: directed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diamond is 0->1->3, 0->2->3 with distinct weights and an unreachable 4.
func diamond(t *testing.T) *graph.Graph {
	return buildWeighted(t, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 5},
		{U: 1, V: 3, W: 10}, {U: 2, V: 3, W: 2},
	}, 5, true)
}

// diamondParents is a valid BFS tree of diamond from 0 under the shared
// result convention (parent[src] = src; -1 unreachable).
func diamondParents() []graph.NodeID { return []graph.NodeID{0, 0, 0, 1, -1} }

func TestBFSOracles(t *testing.T) {
	g := diamond(t)
	depth := verify.BFSDepths(g, 0)
	want := []int32{0, 1, 1, 2, -1}
	for v, d := range want {
		if depth[v] != d {
			t.Fatalf("depth[%d] = %d, want %d", v, depth[v], d)
		}
	}
	if err := verify.CheckBFS(g, 0, diamondParents()); err != nil {
		t.Fatalf("a valid BFS tree rejected: %v", err)
	}
}

func TestCheckBFSRejectsBadTrees(t *testing.T) {
	g := diamond(t)
	good := diamondParents()

	cases := map[string]func(p []graph.NodeID){
		"wrong length":      nil,
		"unreachable claim": func(p []graph.NodeID) { p[4] = 0 },
		"missing parent":    func(p []graph.NodeID) { p[1] = -1 },
		"wrong depth":       func(p []graph.NodeID) { p[3] = 0 }, // 0->3 edge does not exist
		"source not self":   func(p []graph.NodeID) { p[0] = 1 },
	}
	for name, mutate := range cases {
		p := append([]graph.NodeID(nil), good...)
		if mutate == nil {
			p = p[:len(p)-1]
		} else {
			mutate(p)
		}
		if err := verify.CheckBFS(g, 0, p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDijkstraAndCheckSSSP(t *testing.T) {
	g := diamond(t)
	dist := verify.Dijkstra(g, 0)
	want := []kernel.Dist{0, 1, 5, 7, kernel.Inf}
	for v, d := range want {
		if dist[v] != d {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
	if err := verify.CheckSSSP(g, 0, dist); err != nil {
		t.Fatalf("oracle distances rejected: %v", err)
	}
	bad := append([]kernel.Dist(nil), dist...)
	bad[3] = 6
	if err := verify.CheckSSSP(g, 0, bad); err == nil {
		t.Error("wrong distance accepted")
	}
}

func TestComponentsAndCheckCC(t *testing.T) {
	g := buildWeighted(t, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	}, 5, false)
	labels := verify.Components(g)
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Fatalf("labels = %v", labels)
	}
	if labels[0] == labels[2] || labels[4] == labels[0] {
		t.Fatalf("distinct components share labels: %v", labels)
	}
	if err := verify.CheckCC(g, labels); err != nil {
		t.Fatalf("oracle labels rejected: %v", err)
	}
	// Any consistent relabeling is fine.
	relabeled := []graph.NodeID{9, 9, 7, 7, 3}
	if err := verify.CheckCC(g, relabeled); err != nil {
		t.Fatalf("consistent relabeling rejected: %v", err)
	}
	// Splitting a component is not.
	if err := verify.CheckCC(g, []graph.NodeID{9, 8, 7, 7, 3}); err == nil {
		t.Error("split component accepted")
	}
	// Merging two components is not.
	if err := verify.CheckCC(g, []graph.NodeID{9, 9, 9, 9, 3}); err == nil {
		t.Error("merged components accepted")
	}
}

func TestCheckCCDirectedWeak(t *testing.T) {
	// 0->1, 2->1: weakly one component.
	g := buildWeighted(t, []graph.WEdge{{U: 0, V: 1, W: 1}, {U: 2, V: 1, W: 1}}, 3, true)
	if err := verify.CheckCC(g, []graph.NodeID{5, 5, 5}); err != nil {
		t.Fatalf("weak connectivity not honored: %v", err)
	}
}

func TestPageRankOracleAndCheck(t *testing.T) {
	g, err := generate.Kron(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	ranks := verify.PageRank(g, kernel.PRMaxIters, kernel.PRTolerance)
	if err := verify.CheckPR(g, ranks); err != nil {
		t.Fatalf("oracle PR rejected: %v", err)
	}
	bad := append([]float64(nil), ranks...)
	bad[0] += 0.2
	bad[1] -= 0.2
	if err := verify.CheckPR(g, bad); err == nil {
		t.Error("perturbed PR accepted")
	}
	uniform := make([]float64, len(ranks))
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	if err := verify.CheckPR(g, uniform); err == nil {
		t.Error("unconverged uniform PR accepted")
	}
}

// TestCheckPRRejectsTwoIterationsShort stops the oracle's power iteration
// two iterations before it converges on each suite graph at base scale 12:
// CheckPR must reject every such answer and accept the converged one. Road-14
// is the thinnest case, its residual about 1.01 tolerances. One iteration
// short cannot be rejected by any residual check: that answer's residual lies
// within the converged kernels' own, and its last change was already below
// tolerance.
func TestCheckPRRejectsTwoIterationsShort(t *testing.T) {
	for _, spec := range []struct {
		name  string
		scale int
	}{{"Road", 14}, {"Twitter", 12}, {"Web", 12}, {"Kron", 13}, {"Urand", 13}} {
		g, err := generate.ByName(spec.name, spec.scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		converged := verify.PageRank(g, kernel.PRMaxIters, kernel.PRTolerance)
		if err := verify.CheckPR(g, converged); err != nil {
			t.Fatalf("%s: converged oracle rejected: %v", spec.name, err)
		}
		iters := 1
		for !slices.Equal(verify.PageRank(g, iters, kernel.PRTolerance), converged) {
			iters++
		}
		if iters < 3 {
			t.Fatalf("%s converged in %d iterations: nothing to stop two short of", spec.name, iters)
		}
		if err := verify.CheckPR(g, verify.PageRank(g, iters-2, kernel.PRTolerance)); err == nil {
			t.Errorf("%s: PageRank stopped 2 of %d iterations short accepted", spec.name, iters)
		}
	}
}

func TestBetweennessOracleAndCheck(t *testing.T) {
	// Path 0-1-2-3: vertex 1 and 2 lie on all long shortest paths.
	g := buildWeighted(t, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	}, 4, false)
	src := []graph.NodeID{0, 3}
	scores := verify.Betweenness(g, src)
	if scores[1] != 1 || scores[2] != 1 {
		t.Fatalf("scores = %v, want middles at 1.0 (normalized)", scores)
	}
	if scores[0] != 0 || scores[3] != 0 {
		t.Fatalf("endpoints scored: %v", scores)
	}
	if err := verify.CompareBC(verify.Betweenness(g, src), scores); err != nil {
		t.Fatalf("oracle BC rejected: %v", err)
	}
	bad := append([]float64(nil), scores...)
	bad[1] = 0.5
	if err := verify.CompareBC(verify.Betweenness(g, src), bad); err == nil {
		t.Error("wrong BC accepted")
	}
}

func TestTrianglesOracleAndCheck(t *testing.T) {
	// Two triangles sharing an edge: 0-1-2 and 1-2-3.
	g := buildWeighted(t, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 1, V: 3, W: 1}, {U: 2, V: 3, W: 1},
	}, 4, false)
	if got := verify.Triangles(g); got != 2 {
		t.Fatalf("triangles = %d, want 2", got)
	}
	if err := verify.CheckTC(g, 2); err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckTC(g, 3); err == nil {
		t.Error("wrong count accepted")
	}
}

func TestTrianglesDirectedCountsUndirected(t *testing.T) {
	// Directed cycle 0->1->2->0 forms one undirected triangle.
	g := buildWeighted(t, []graph.WEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
	}, 3, true)
	if got := verify.Triangles(g); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
}

// Property: SSSP distances satisfy the triangle inequality over every edge
// and equal zero exactly at the source.
func TestDijkstraTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := generate.Urand(6, seed)
		if err != nil {
			return false
		}
		src := graph.NodeID(0)
		dist := verify.Dijkstra(g, src)
		if dist[src] != 0 {
			return false
		}
		for u := int32(0); u < g.NumNodes(); u++ {
			if dist[u] == kernel.Inf {
				continue
			}
			ws := g.OutWeights(u)
			for i, v := range g.OutNeighbors(u) {
				if dist[v] > dist[u]+ws[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS depths are within hop-count bounds of Dijkstra distances
// scaled by weights — specifically, depth <= dist always (weights >= 1).
func TestDepthLowerBoundsDistance(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := generate.Twitter(6, seed)
		if err != nil {
			return false
		}
		depth := verify.BFSDepths(g, 0)
		dist := verify.Dijkstra(g, 0)
		for v := range depth {
			if (depth[v] < 0) != (dist[v] == kernel.Inf) {
				return false // reachability must agree
			}
			if depth[v] >= 0 && dist[v] < depth[v] {
				return false // every hop costs at least 1
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// bruteTriangles is the O(n³) executable definition: the number of vertex
// triples a < b < c whose three pairs are each joined in either direction.
// Self-loops join no pair, so they cannot count.
func bruteTriangles(g *graph.Graph) int64 {
	n := int(g.NumNodes())
	adj := make([][]bool, n)
	for u := range adj {
		adj[u] = make([]bool, n)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			if int(v) != u {
				adj[u][v], adj[v][u] = true, true
			}
		}
	}
	var count int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !adj[a][b] {
				continue
			}
			for c := b + 1; c < n; c++ {
				if adj[a][c] && adj[b][c] {
					count++
				}
			}
		}
	}
	return count
}

// clique appends K_k on the given vertices.
func clique(edges []graph.Edge, vs ...graph.NodeID) []graph.Edge {
	for i, u := range vs {
		for _, v := range vs[i+1:] {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return edges
}

// The shapes that stress the (degree, id) ranking: when every degree ties the
// id alone decides each orientation, and a hub must end up ranked last.
func TestTrianglesRankingShapes(t *testing.T) {
	star := func() []graph.Edge {
		var e []graph.Edge
		for v := graph.NodeID(1); v < 9; v++ {
			e = append(e, graph.Edge{U: 0, V: v})
		}
		return e
	}
	cases := []struct {
		name  string
		edges []graph.Edge
		want  int64
	}{
		{"K6", clique(nil, 0, 1, 2, 3, 4, 5), 20},
		// K4 on {0,1,2,3} and K4 on {2,3,4,5} share edge 2-3: 4 + 4.
		{"two cliques sharing an edge", clique(clique(nil, 0, 1, 2, 3), 2, 3, 4, 5), 8},
		{"star", star(), 0},
		// Hub 0 sees all of K4 {1,2,3,4}: the clique's 4 plus one per clique edge.
		{"hub joined to a clique", clique(star(), 1, 2, 3, 4), 10},
	}
	for _, tc := range cases {
		for _, directed := range []bool{false, true} {
			g, err := graph.Build(tc.edges, graph.BuildOptions{Directed: directed})
			if err != nil {
				t.Fatal(err)
			}
			if got, brute := verify.Triangles(g), bruteTriangles(g); got != tc.want || brute != tc.want {
				t.Errorf("%s (directed=%v): triangles = %d, brute force %d, want %d",
					tc.name, directed, got, brute, tc.want)
			}
		}
	}
}

// Differential: the degree-oriented oracle against the adjacency-matrix
// definition on seeded random graphs — sparse through dense, directed and
// undirected, with isolated vertices (ids above the drawn range) and, on odd
// trials, self-loops kept in the graph.
func TestTrianglesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7c17))
	for trial := 0; trial < 200; trial++ {
		n := int32(1 + rng.Intn(48))
		used := 1 + rng.Int31n(n)                    // vertices used..n-1 stay isolated
		perVertex := []int{1, 3, int(used)}[trial%3] // sparse, medium, dense
		m := rng.Intn(int(used)*perVertex + 1)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Int31n(used), V: rng.Int31n(used)}
		}
		opt := graph.BuildOptions{NumNodes: n, Directed: trial%4 < 2, KeepSelfLoops: trial%2 == 1}
		g, err := graph.Build(edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := verify.Triangles(g), bruteTriangles(g); got != want {
			t.Fatalf("trial %d (n=%d m=%d %+v): triangles = %d, brute force %d", trial, n, m, opt, got, want)
		}
	}
}

// sccGraph has four SCCs: the cycle {0,1,2} feeds the two-cycle {3,4}, which
// feeds the sink {5}; the two-cycle {6,7} feeds {5} too.
func sccGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 3}, {U: 4, V: 5},
		{U: 6, V: 7}, {U: 7, V: 6}, {U: 7, V: 5},
	}, graph.BuildOptions{NumNodes: 8, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The planted-bug catalogue: plausible wrong partitions derived from the
// right one, each of which CheckSCC must reject, and a correct one with
// other ids, which it must accept.
func TestCheckSCCPlantedBugs(t *testing.T) {
	g := sccGraph(t)
	right := []int32{2, 2, 2, 1, 1, 0, 3, 3}
	if err := verify.CheckSCC(g, right); err != nil {
		t.Fatalf("the right partition: %v", err)
	}
	cases := []struct {
		name string
		comp []int32
		want string // "" = accept; otherwise a substring of the error
	}{
		{"non-canonical ids: sparse, other topological order", []int32{5, 5, 5, 3, 3, 0, 7, 7}, ""},
		{"two SCCs merged ({3,4} with the sink {5})", []int32{2, 2, 2, 1, 1, 1, 3, 3}, "not strongly connected"},
		{"one SCC split in two ({0} apart from {1,2})", []int32{4, 2, 2, 1, 1, 0, 3, 3}, "climbs"},
		{"sink-first order broken: the cross arc 2->3 points up", []int32{1, 1, 1, 2, 2, 0, 3, 3}, "climbs"},
		{"length mismatch", right[:7], "length"},
		{"id outside [0,n)", []int32{2, 2, 2, 1, 1, -1, 3, 3}, "outside"},
	}
	for _, tc := range cases {
		err := verify.CheckSCC(g, tc.comp)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// bruteSCC is the executable definition: u and v share a component iff each
// reaches the other in the boolean transitive closure. Components are
// numbered by how many vertices they reach, fewest first (ties by first
// member), which is sink-first: a component reaches strictly more than any
// component it points to.
func bruteSCC(g *graph.Graph) (reach [][]bool, comp []int32) {
	n := int(g.NumNodes())
	reach = make([][]bool, n)
	for u := range reach {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			reach[u][v] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if reach[i][k] {
				for j := 0; j < n; j++ {
					reach[i][j] = reach[i][j] || reach[k][j]
				}
			}
		}
	}
	count := func(u int) (c int) {
		for _, r := range reach[u] {
			if r {
				c++
			}
		}
		return c
	}
	var firsts []int // first member of each component
	comp = make([]int32, n)
	for v := range comp {
		comp[v] = -1
	}
	for u := 0; u < n; u++ {
		if comp[u] >= 0 {
			continue
		}
		firsts = append(firsts, u)
		for v := u; v < n; v++ {
			if reach[u][v] && reach[v][u] {
				comp[v] = int32(u) // provisional: the first member
			}
		}
	}
	slices.SortStableFunc(firsts, func(a, b int) int { return count(a) - count(b) })
	id := make([]int32, n)
	for i, f := range firsts {
		id[f] = int32(i)
	}
	for v := range comp {
		comp[v] = id[comp[v]]
	}
	return reach, comp
}

// Differential: CheckSCC's verdict on the brute-force partition and on
// mutations of it (two components merged, a component split, two ids
// swapped) equals the definition's — the partition is mutual reachability
// and no arc climbs — on seeded random digraphs with n ≤ 48.
func TestCheckSCCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5cc))
	rejected := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		m := rng.Intn(n*[]int{1, 2, 4}[trial%3] + 1)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Int31n(int32(n)), V: rng.Int31n(int32(n))}
		}
		g, err := graph.Build(edges, graph.BuildOptions{NumNodes: int32(n), Directed: trial%5 != 0, KeepSelfLoops: trial%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		reach, right := bruteSCC(g)
		valid := func(comp []int32) bool {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if (comp[u] == comp[v]) != (reach[u][v] && reach[v][u]) {
						return false
					}
				}
				for _, v := range g.OutNeighbors(graph.NodeID(u)) {
					if comp[v] > comp[u] {
						return false
					}
				}
			}
			return true
		}
		cand := slices.Clone(right)
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		switch trial % 4 {
		case 1: // merge b's component into a's
			ca, cb := cand[a], cand[b]
			for v := range cand {
				if cand[v] == cb {
					cand[v] = ca
				}
			}
		case 2: // split vertex a off into a fresh id
			cand[a] = int32(n - 1)
			if right[a] == int32(n-1) {
				cand[a] = 0
			}
		case 3: // swap the ids of a's and b's components
			ca, cb := cand[a], cand[b]
			for v := range cand {
				switch cand[v] {
				case ca:
					cand[v] = cb
				case cb:
					cand[v] = ca
				}
			}
		}
		want := valid(cand)
		if trial%4 == 0 && !want {
			t.Fatalf("trial %d: the brute-force partition is not valid by its own definition", trial)
		}
		if err := verify.CheckSCC(g, cand); (err == nil) != want {
			t.Fatalf("trial %d (n=%d m=%d): CheckSCC(%v) = %v, definition says valid=%v", trial, n, m, cand, err, want)
		}
		if !want {
			rejected++
		}
	}
	if rejected < 60 {
		t.Errorf("only %d of 300 candidates were wrong; the mutations are too gentle", rejected)
	}
}
