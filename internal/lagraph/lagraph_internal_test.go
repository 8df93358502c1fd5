package lagraph

import (
	"runtime"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/grb"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

func prepared(t *testing.T, name string, scale int) (*Framework, *graph.Graph, *matrices) {
	t.Helper()
	g, err := generate.ByName(name, scale, 17)
	if err != nil {
		t.Fatal(err)
	}
	f := New()
	return f, g, f.Prepare(g, g.Undirected()).(*matrices)
}

// TestMatricesCachedPerGraph checks that Prepare converts every matrix and
// that a kernel handed them uses them instead of converting again, while one
// handed another graph's matrices converts its own.
func TestMatricesCachedPerGraph(t *testing.T) {
	_, g, m := prepared(t, "Kron", 7)
	if again := matricesFor(g, kernel.Options{Prepared: m}); again != m {
		t.Fatal("matrices rebuilt for the graph they were prepared from")
	}
	other, err := generate.ByName("Kron", 7, 18)
	if err != nil {
		t.Fatal(err)
	}
	if mo := matricesFor(other, kernel.Options{Prepared: m}); mo == m || mo.g != other {
		t.Fatal("another graph's matrices were used")
	}
	if m.a.NVals() != g.NumEdges() {
		t.Fatalf("A nvals = %d, graph edges = %d", m.a.NVals(), g.NumEdges())
	}
	if m.at.NVals() != m.a.NVals() {
		t.Fatal("A' nvals differs from A")
	}
	if m.aw.NVals() != m.a.NVals() {
		t.Fatal("weighted A nvals differs")
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		if m.degree[u] != float64(g.OutDegree(u)) {
			t.Fatalf("degree[%d] wrong", u)
		}
	}
}

func TestUndirectedMatrixForDirectedGraphs(t *testing.T) {
	f, g, m := prepared(t, "Twitter", 7)
	_ = f
	if !g.Directed() {
		t.Fatal("twitter should be directed")
	}
	if m.und == m.a {
		t.Fatal("directed graph must get a separate symmetrized matrix")
	}
	// The symmetrized matrix must contain both directions of every edge.
	for u := grb.Index(0); u < m.a.NRows(); u++ {
		cols, _ := m.a.Row(u)
		for _, v := range cols {
			found := false
			back, _ := m.und.Row(v)
			for _, w := range back {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing reverse in symmetrized matrix", u, v)
			}
		}
	}
}

func TestBFSParentsVector(t *testing.T) {
	_, g, m := prepared(t, "Web", 7)
	src := grb.Index(0)
	for g.OutDegree(graph.NodeID(src)) == 0 {
		src++
	}
	pi := bfsParents(par.Default(), m, src, grb.DirAuto)
	if p, ok := pi.Extract(src); !ok || p != int64(src) {
		t.Fatalf("source parent = %v,%v", p, ok)
	}
	// Convert and verify via the shared checker.
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = -1
	}
	pi.Iterate(func(i grb.Index, p int64) { out[i] = graph.NodeID(p) })
	if err := verify.CheckBFS(g, graph.NodeID(src), out); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaSteppingAgainstDijkstra(t *testing.T) {
	_, g, m := prepared(t, "Road", 8)
	for _, delta := range []kernel.Dist{4, 64, 1024} {
		dist := deltaStepping(par.Default(), m.aw, 0, delta)
		if err := verify.CheckSSSP(g, 0, dist.Dense()); err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
	}
}

func TestFastSVFixedPoint(t *testing.T) {
	_, g, m := prepared(t, "Kron", 8)
	f := fastSV(par.Default(), m.und)
	labels := f.Dense()
	// Fixed point: every label is a root (f[f[v]] == f[v]) and labels are
	// minima over components (checked via the oracle).
	for v := range labels {
		if labels[labels[v]] != labels[v] {
			t.Fatalf("label of %d not a root", v)
		}
	}
	out := make([]graph.NodeID, len(labels))
	for i, l := range labels {
		out[i] = graph.NodeID(l)
	}
	if err := verify.CheckCC(g, out); err != nil {
		t.Fatal(err)
	}
	// FastSV converges to the minimum vertex id per component.
	comp := verify.Components(g)
	for v := range labels {
		if graph.NodeID(labels[v]) != comp[v] {
			t.Fatalf("label[%d] = %d, want min-id %d", v, labels[v], comp[v])
		}
	}
}

func TestTriangleCountMatchesOracle(t *testing.T) {
	_, g, m := prepared(t, "Urand", 7)
	want := verify.Triangles(g)
	if got := triangleCount(par.Default(), m.und); got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	f, g, _ := prepared(t, "Twitter", 7)
	m := par.NewMachine(2)
	defer m.Close()
	r := f.PR(g, kernel.Options{Machine: m})
	if err := verify.CheckPR(g, r); err != nil {
		t.Fatal(err)
	}
}

// bcShape is a high-diameter input for the batched Brandes: many thin levels,
// and roots whose searches end at different depths.
type bcShape struct {
	name  string
	g     *graph.Graph
	roots []graph.NodeID
}

// pathEdges returns the edges from-(from+1)-...-to.
func pathEdges(from, to graph.NodeID) []graph.Edge {
	var e []graph.Edge
	for v := from; v < to; v++ {
		e = append(e, graph.Edge{U: v, V: v + 1})
	}
	return e
}

func bcShapes(t *testing.T) []bcShape {
	t.Helper()
	build := func(edges []graph.Edge, directed bool, n int32) *graph.Graph {
		g, err := graph.Build(edges, graph.BuildOptions{Directed: directed, NumNodes: n})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	path := pathEdges
	const side = 12
	var grid []graph.Edge
	for y := graph.NodeID(0); y < side; y++ {
		for x := graph.NodeID(0); x < side; x++ {
			if x+1 < side {
				grid = append(grid, graph.Edge{U: y*side + x, V: y*side + x + 1})
			}
			if y+1 < side {
				grid = append(grid, graph.Edge{U: y*side + x, V: (y+1)*side + x})
			}
		}
	}
	// A 60-vertex path and a 6-vertex one: the short component's roots are
	// exhausted for most of both sweeps while the long one's still advance.
	two := append(path(0, 59), path(60, 65)...)
	return []bcShape{
		{"path", build(path(0, 199), false, 200), []graph.NodeID{0, 100, 199, 1}},
		{"directed path", build(path(0, 99), true, 100), []graph.NodeID{0, 98, 50, 99}},
		{"grid", build(grid, false, side*side), []graph.NodeID{0, side*side - 1, 5*side + 5, side - 1}},
		{"two components", build(two, false, 66), []graph.NodeID{0, 62, 30, 65}},
	}
}

// TestBetweennessMatchesSerialBrandes is the multi-root differential: the
// batched kernel against verify's serial Brandes, one root and four, on shapes
// whose depth — not whose size — is what the level bookkeeping must survive.
func TestBetweennessMatchesSerialBrandes(t *testing.T) {
	m := par.NewMachine(2)
	defer m.Close()
	for _, shape := range bcShapes(t) {
		for _, k := range []int{1, 4} {
			roots := shape.roots[:k]
			scores := New().BC(shape.g, roots, kernel.Options{Machine: m})
			if err := verify.CheckBC(shape.g, roots, scores); err != nil {
				t.Errorf("%s, %d roots: %v", shape.name, k, err)
			}
		}
	}
}

// TestBetweennessAllocationIsDepthIndependent bounds what one batched BC
// allocates on a 4096-vertex path (4095 levels) by a constant times k*n: the
// operands, sigma, delta and the visit-order lists. Anything allocated per
// level — an n-bit level set is 512 bytes, a k-by-n operand 128 KiB — would
// multiply by the depth and overshoot the bound many times over.
func TestBetweennessAllocationIsDepthIndependent(t *testing.T) {
	const n, k = 4096, 4
	g, err := graph.Build(pathEdges(0, n-1), graph.BuildOptions{NumNodes: n})
	if err != nil {
		t.Fatal(err)
	}
	m := New().Prepare(g, g).(*matrices)
	roots := []grb.Index{0, n / 2, n - 1, 7}
	run := func() { betweenness(par.Default(), m, roots) }
	run() // warm the machine
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const perEntry = 128 // bytes per (root, vertex); measured ~83
	if got := after.TotalAlloc - before.TotalAlloc; got > perEntry*k*n {
		t.Fatalf("one BC over %d levels allocated %d bytes, bound is %d (%d per root per vertex)",
			n-1, got, perEntry*k*n, perEntry)
	}
}

// TestOptimizedTCConvertsRelabeledViewOnce requires an Optimized TC cell
// handed the relabeled view's prepared matrix not to convert that view
// again: it allocates at least the matrix's column array less than a cell
// handed nothing, which converts the view inside the trial.
func TestOptimizedTCConvertsRelabeledViewOnce(t *testing.T) {
	g, err := generate.ByName("Kron", 9, 17)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	rel, _ := graph.DegreeRelabel(par.Default(), u)
	m := par.NewMachine(2)
	defer m.Close()
	opt := kernel.Options{Mode: kernel.Optimized, Machine: m, UndirectedView: u, RelabeledView: rel}
	want := verify.Triangles(u)
	f := New()
	allocated := func(opt kernel.Options) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := f.TC(g, opt)
		runtime.ReadMemStats(&after)
		if got != want {
			t.Fatalf("Optimized TC = %d, want %d", got, want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	_, neigh := rel.RawOut()
	colBytes := uint64(8 * len(neigh))

	unprepared := allocated(opt)
	state := f.Prepare(nil, rel).(*matrices)
	if state.a != nil || state.at != nil || state.aw != nil {
		t.Error("the relabeled view's state converts more than TC reads")
	}
	opt.Prepared = state
	if p := allocated(opt); p+colBytes > unprepared {
		t.Errorf("call handed the prepared matrix allocated %d B, unprepared call %d B: the %d B column array was rebuilt", p, unprepared, colBytes)
	}
	opt.Prepared = f.Prepare(g, u) // the input graph's state: not the relabeled view's
	if p := allocated(opt); p+colBytes < unprepared {
		t.Errorf("call handed the input graph's matrices allocated %d B, unprepared call %d B: the wrong view's matrix was used", p, unprepared)
	}
}
