package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/invariant"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

// TestReachIndexMatchesTraversal: on every suite graph at scales 8 and 10,
// from every source, with every framework, the served BFS and SSSP reached
// count equals the count over runKernel's full output and the oracle's, the
// served CC answer is the vertex's canonical label and component size, and
// all are read off the reach index: no kernel_micros, no snapshot built.
// Under -short (the race tiers) it covers scale 8 from 16 sources.
func TestReachIndexMatchesTraversal(t *testing.T) {
	scales, stride := []int{8, 10}, int64(1)
	if testing.Short() {
		scales = scales[:1]
	}
	m := par.NewMachine(2)
	defer m.Close()
	for _, spec := range core.DefaultSuite(8) {
		t.Run(spec.Name, func(t *testing.T) {
			for _, scale := range scales {
				spec.Scale = scale
				t.Run(fmt.Sprint(scale), func(t *testing.T) {
					in := loadInput(t, spec)
					fws := core.Frameworks()
					core.PrepareViews(fws, []*core.Input{in})
					srv := newTestServer(t, Config{PoolSize: 1, Workers: 2}, in, fws...)
					if srv.reach[spec.Name] == nil {
						t.Fatalf("%s-%d has no reach index", spec.Name, scale)
					}
					n := int64(in.Graph.NumNodes())
					if testing.Short() {
						stride = n / 16
					}
					opt := kernel.Options{Machine: m, Mode: kernel.Baseline, Delta: spec.Delta, UndirectedView: in.Undirected}
					labels, sizes := componentsOracle(in.Graph)
					queries := int64(0)
					for src := graph.NodeID(0); int64(src) < n; src += graph.NodeID(stride) {
						want := bfsReached(in.Graph, src)
						for _, f := range fws {
							r := srv.query(Request{Kernel: "CC", Framework: f.Name(), Vertex: int64(src)}, par.NewCancelToken())
							if r.Code != CodeOK || r.KernelMicros != 0 || !isComponent(r.Result, labels[src], sizes[labels[src]]) {
								t.Fatalf("%s CC of %d: served %+v (%+v), want component %d of size %d",
									f.Name(), src, r, r.Result, labels[src], sizes[labels[src]])
							}
							queries++
							for _, k := range []core.Kernel{core.BFS, core.SSSP} {
								full, _ := runKernel(&queryPlan{f: f, k: k, src: src, target: -1}, in.Graph, opt)()
								r := srv.query(Request{Kernel: string(k), Framework: f.Name(), Source: int64(src)}, par.NewCancelToken())
								if r.Code != CodeOK || r.Kernel != string(k) || r.KernelMicros != 0 ||
									r.Result.Reached != full.Reached || full.Reached != want {
									t.Fatalf("%s %s from %d: served %+v (%+v), runKernel reached %d, oracle %d",
										f.Name(), k, src, r, r.Result, full.Reached, want)
								}
								queries++
							}
						}
					}
					st := srv.StatsSnapshot()
					if st.ReachHits != queries || st.SnapshotBuilds != 0 || st.OK != queries {
						t.Errorf("reach hits %d, snapshot builds %d, ok %d, want %d/0/%d", st.ReachHits, st.SnapshotBuilds, st.OK, queries, queries)
					}
				})
			}
		})
	}
}

// TestReachIndexOverBoundRunsKernel: a directed path of 200 vertices has 200
// components and 199 rows of 4 words, over its 199 arcs, so NewServer gives
// its index no reach counts and its reach queries run the kernel — the
// daemon's remaining BFS kernel path — and still answer right, while its CC
// queries are still answered from the index: one weak component, label 0.
func TestReachIndexOverBoundRunsKernel(t *testing.T) {
	const n = 200
	edges := make([]graph.WEdge, n-1)
	for i := range edges {
		edges[i] = graph.WEdge{U: graph.NodeID(i), V: graph.NodeID(i + 1), W: 1}
	}
	g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: n, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	in := core.PrepareInput(core.GraphSpec{Name: "Path", Delta: 1}, g)
	t.Cleanup(func() { _ = in.Close() })
	if ix, st := newReachIndex(g); ix.reached != nil || st.comps != n || st.weak != 1 || st.rows != n-1 || st.bitsetBytes != 8*(n-1)*4 || st.bound != 8*(n-1) {
		t.Fatalf("path index %+v, stats %+v: want no reach counts, 1 weak component, 199 rows of 4 words over 199 arcs", ix, st)
	}
	fws := []kernel.Framework{core.FrameworkByName("GAP")}
	core.PrepareViews(fws, []*core.Input{in})
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, fws...)
	if ix := srv.reach["Path"]; ix == nil || ix.reached != nil {
		t.Fatal("NewServer gave a graph over the bound no index, or reach counts")
	}
	for _, src := range []int64{0, 57, n - 1} {
		for _, k := range []string{"BFS", "SSSP"} {
			req := Request{Kernel: k, Source: src}
			if p, refused := srv.plan(req); refused != nil || p.reach != nil || p.slot != nil {
				t.Fatalf("%s from %d is not planned as a kernel run (refused: %+v)", k, src, refused)
			}
			r := srv.query(req, par.NewCancelToken())
			if r.Code != CodeOK || r.KernelMicros == 0 || r.Result.Reached != n-src {
				t.Errorf("%s from %d: %+v, want OK with kernel_micros, reached %d", k, src, r, n-src)
			}
		}
	}
	for _, v := range []int64{0, 57, n - 1} {
		req := Request{Kernel: "CC", Vertex: v}
		if p, refused := srv.plan(req); refused != nil || p.reach == nil || p.slot != nil {
			t.Fatalf("CC of %d is not planned as an index read (refused: %+v)", v, refused)
		}
		r := srv.query(req, par.NewCancelToken())
		if r.Code != CodeOK || r.KernelMicros != 0 || !isComponent(r.Result, 0, n) {
			t.Errorf("CC of %d: %+v (%+v), want component 0 of size %d off the index", v, r, r.Result, n)
		}
	}
	if st := srv.StatsSnapshot(); st.ReachHits != 3 || st.SnapshotBuilds != 0 {
		t.Errorf("reach hits = %d, snapshot builds %d, want 3 (the CC answers) and 0", st.ReachHits, st.SnapshotBuilds)
	}
}

// componentsOracle is verify.Components' labelling of g and the vertex count
// of each label, indexed by label.
func componentsOracle(g *graph.Graph) ([]graph.NodeID, []int64) {
	labels := verify.Components(g)
	sizes := make([]int64, len(labels))
	for _, l := range labels {
		sizes[l]++
	}
	return labels, sizes
}

// isComponent reports whether a CC result is component label of size size.
func isComponent(res *QueryResult, label graph.NodeID, size int64) bool {
	return res != nil && res.Component == int64(label) && res.Size == size
}

// componentsMismatch names the first vertex whose index label or size is not
// verify.Components' and a recount, or is "" when none is.
func componentsMismatch(g *graph.Graph, ix *reachIndex) string {
	labels, sizes := componentsOracle(g)
	for v, want := range labels {
		if label, size := ix.component(graph.NodeID(v)); label != want || size != sizes[want] {
			return fmt.Sprintf("vertex %d is in component %d of size %d by the index, %d of size %d by the oracle",
				v, label, size, want, sizes[want])
		}
	}
	return ""
}

// TestReachIndexComponentsMatchOracle: on every suite generator at scales 6
// and 8, the index's weak components are verify.Components' canonical
// labelling vertex by vertex, and each size its recount.
func TestReachIndexComponentsMatchOracle(t *testing.T) {
	for _, spec := range core.DefaultSuite(8) {
		for _, scale := range []int{6, 8} {
			spec.Scale = scale
			g := loadInput(t, spec).Graph
			ix, st := newReachIndex(g)
			if msg := componentsMismatch(g, ix); msg != "" {
				t.Errorf("%s-%d: %s", spec.Name, scale, msg)
			}
			if roots := countRoots(verify.Components(g)); st.weak != roots {
				t.Errorf("%s-%d: %d weak components by the index, %d by the oracle", spec.Name, scale, st.weak, roots)
			}
		}
	}
}

// countRoots is the number of canonical labels: vertices labelled themselves.
func countRoots(labels []graph.NodeID) int {
	roots := 0
	for v, l := range labels {
		if graph.NodeID(v) == l {
			roots++
		}
	}
	return roots
}

// TestReachIndexMatchesOracleOnRandomDigraphs: on seeded random graphs —
// directed and undirected, sparse through dense, self-loops on odd trials,
// small enough for one bitset word and large enough for several — Tarjan's
// partition passes verify.CheckSCC, every vertex's weak component is
// verify.Components' and a recount, and every vertex's count equals a BFS.
// Fifty more trials are forced over the bitset bound — sparse random DAGs of
// more than 64 vertices, so every vertex is its own component and nearly
// every arc source a row — and must keep exact weak components.
func TestReachIndexMatchesOracleOnRandomDigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5cc))
	indexed, over := 0, 0
	for trial := 0; trial < 350; trial++ {
		n := 1 + rng.Intn(48)
		if trial%3 == 2 || trial >= 300 {
			n = 65 + rng.Intn(256)
		}
		m := rng.Intn(n*[]int{1, 2, 6}[trial%3] + 1)
		if trial >= 300 {
			m = n/4 + rng.Intn(n/2)
		}
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Int31n(int32(n)), V: rng.Int31n(int32(n))}
			if trial >= 300 { // arcs only climb: acyclic
				edges[i].U, edges[i].V = min(edges[i].U, edges[i].V), max(edges[i].U, edges[i].V)
			}
		}
		opt := graph.BuildOptions{NumNodes: int32(n), Directed: trial%5 != 0 || trial >= 300, KeepSelfLoops: trial%2 == 1 && trial < 300}
		g, err := graph.Build(edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		ix, st := newReachIndex(g)
		if err := verify.CheckSCC(g, ix.comp); err != nil {
			t.Fatalf("trial %d (n=%d m=%d %+v): %v", trial, n, m, opt, err)
		}
		if msg := componentsMismatch(g, ix); msg != "" {
			t.Fatalf("trial %d (n=%d m=%d %+v): %s", trial, n, m, opt, msg)
		}
		if ix.reached == nil {
			if st.bitsetBytes <= st.bound {
				t.Fatalf("trial %d: no reach counts within the bound: %+v", trial, st)
			}
			over++
			continue
		}
		if trial >= 300 {
			t.Errorf("trial %d (n=%d m=%d): forced over the bound, but indexed: %+v", trial, n, m, st)
		}
		indexed++
		for v := graph.NodeID(0); v < graph.NodeID(n); v++ {
			if got, want := ix.reach(v), bfsReached(g, v); got != want {
				t.Fatalf("trial %d (n=%d m=%d %+v): vertex %d reaches %d by the index, %d by a BFS", trial, n, m, opt, v, got, want)
			}
		}
	}
	if indexed < 250 || over < 50 {
		t.Errorf("%d of 350 random graphs had reach counts and %d had none, want at least 250 and the 50 forced over the bound", indexed, over)
	}
}

// TestReachIndexCheckRejectsCorruptIndex: the build check NewServer runs
// refuses an index whose partition is not the SCCs, one whose counts are off,
// one with a wrong weak-component label — a non-canonical one included — and
// one with a wrong weak-component size, so none is ever served.
func TestReachIndexCheckRejectsCorruptIndex(t *testing.T) {
	g := loadInput(t, core.GraphSpec{Name: "Twitter", Scale: 8, Seed: 1, Delta: 16, SourceSeed: 5}).Graph
	ix, st := newReachIndex(g)
	if ix == nil || st.comps < 2 {
		t.Fatalf("Twitter-8 index %v, stats %+v: want an index over several components", ix, st)
	}
	if err := checkReachIndex(g, ix); err != nil {
		t.Fatalf("the built index fails its check: %v", err)
	}
	merged := *ix
	merged.comp = make([]int32, len(ix.comp)) // every vertex in one component
	if err := checkReachIndex(g, &merged); err == nil || !strings.Contains(err.Error(), "not strongly connected") {
		t.Errorf("all components merged: %v", err)
	}
	counts := *ix
	counts.reached = slices.Clone(ix.reached)
	for x := range counts.reached {
		counts.reached[x]++
	}
	if err := checkReachIndex(g, &counts); err == nil || !strings.Contains(err.Error(), "by a BFS") {
		t.Errorf("every count one too large: %v", err)
	}
	// The last vertex's component, relabelled: first with another vertex of
	// its own weak component when it has one (a consistent but non-canonical
	// label), else with a vertex outside it.
	last := ix.comp[len(ix.comp)-1]
	labels := *ix
	labels.label = slices.Clone(ix.label)
	labels.label[last] = graph.NodeID(len(ix.comp) - 1)
	if labels.label[last] == ix.label[last] {
		labels.label[last] = ix.label[ix.comp[0]] + 1
	}
	if err := checkReachIndex(g, &labels); err == nil || !strings.Contains(err.Error(), "by verify.Components") {
		t.Errorf("component %d labelled %d, canonically %d: %v", last, labels.label[last], ix.label[last], err)
	}
	sizes := *ix
	sizes.size = slices.Clone(ix.size)
	sizes.size[last]++
	if err := checkReachIndex(g, &sizes); err == nil || !strings.Contains(err.Error(), "by a recount") {
		t.Errorf("component %d's weak size one too large: %v", last, err)
	}
}

// TestReachAnswerHoldsNoLeaseAndClosesProbe: a reach or CC answer is served
// like a snapshot hit — with the pool's only machine held by a stalled SSSP it
// is still answered, and a half-open probe answered from the index closes the
// (framework, BFS) circuit.
func TestReachAnswerHoldsNoLeaseAndClosesProbe(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond}}, in, stallSSSP{stubFramework{"Stub"}})
	tok := par.NewCancelToken()
	stalled := kernelQuery(t, srv, Request{Source: 1, BudgetMS: 2000})
	ssspDone := make(chan Response, 1)
	go func() { ssspDone <- srv.query(stalled, tok) }()
	waitFor(t, func() bool { return srv.pool.Outstanding() == 1 })

	want := bfsReached(in.Graph, 2)
	if r := srv.query(Request{Kernel: "BFS", Source: 2}, par.NewCancelToken()); r.Code != CodeOK || r.KernelMicros != 0 || r.Result.Reached != want {
		t.Errorf("reach answer behind a busy pool: %+v, want reached %d", r, want)
	}
	labels, sizes := componentsOracle(in.Graph)
	if r := srv.query(Request{Kernel: "CC", Vertex: 2}, par.NewCancelToken()); r.Code != CodeOK || r.KernelMicros != 0 ||
		!isComponent(r.Result, labels[2], sizes[labels[2]]) {
		t.Errorf("CC answer behind a busy pool: %+v, want component %d of size %d", r, labels[2], sizes[labels[2]])
	}
	srv.breakers.OnAbandon("Stub", "BFS", false) // opens the circuit
	if r := srv.query(Request{Kernel: "BFS", Source: 2}, par.NewCancelToken()); r.Code != CodeUnavailable {
		t.Fatalf("reach query on an open circuit: %+v (a reach answer still passes the breaker)", r)
	}
	time.Sleep(15 * time.Millisecond)
	if r := srv.query(Request{Kernel: "BFS", Source: 2}, par.NewCancelToken()); r.Code != CodeOK {
		t.Fatalf("probe answered from the index: %+v", r)
	}
	if ok, probe := srv.breakers.Allow("Stub", "BFS"); !ok || probe {
		t.Errorf("after the probe: ok=%v probe=%v, want a closed circuit", ok, probe)
	}
	if got := srv.pool.Outstanding(); got != 1 {
		t.Errorf("outstanding leases = %d, want 1 (the SSSP's)", got)
	}
	tok.Cancel()
	if r := <-ssspDone; r.Code != CodeDeadlineExceeded {
		t.Errorf("cancelled SSSP: %+v", r)
	}
}

// TestReachAnswerCheckPanicsUnderCheck: a reach answer read off a corrupted
// index trips the sampled recomputation within reachCheckEvery queries.
func TestReachAnswerCheckPanicsUnderCheck(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	// Swap the index for one whose every count is one vertex too large.
	bad := *srv.reach["Kron"]
	bad.reached = slices.Clone(bad.reached)
	for x := range bad.reached {
		bad.reached[x]++
	}
	srv.reach["Kron"] = &bad

	defer func() {
		if pv := recover(); pv == nil || !strings.Contains(pv.(string), "servecheck: reachAnswerCheck") {
			t.Errorf("corrupted reach answers served; recovered %v", pv)
		}
	}()
	for i := 0; i < reachCheckEvery; i++ {
		srv.query(Request{Kernel: "BFS", Source: int64(i) % int64(in.Graph.NumNodes())}, par.NewCancelToken())
	}
}

// TestReachComponentAnswerCheckPanicsUnderCheck: a CC answer read off an index
// with a wrong label trips the sampled recomputation within reachCheckEvery
// queries.
func TestReachComponentAnswerCheckPanicsUnderCheck(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	// Swap the index for one whose every label is one past the canonical one.
	bad := *srv.reach["Kron"]
	bad.label = slices.Clone(bad.label)
	for x := range bad.label {
		bad.label[x]++
	}
	srv.reach["Kron"] = &bad

	defer func() {
		if pv := recover(); pv == nil || !strings.Contains(pv.(string), "servecheck: componentAnswerCheck") {
			t.Errorf("wrong CC labels served; recovered %v", pv)
		}
	}()
	for i := 0; i < reachCheckEvery; i++ {
		srv.query(Request{Kernel: "CC", Vertex: int64(i) % int64(in.Graph.NumNodes())}, par.NewCancelToken())
	}
}

// TestReachIndexEpochMismatchPanicsUnderCheck: serving off a reach index
// stamped with another graph epoch trips the sanitizer, which names the index.
func TestReachIndexEpochMismatchPanicsUnderCheck(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	stale := *srv.reach["Kron"]
	stale.epoch++
	srv.reach["Kron"] = &stale

	defer func() {
		if pv := recover(); pv == nil || !strings.Contains(pv.(string), "servecheck: reach index built at graph epoch") {
			t.Errorf("stale reach index served; recovered %v", pv)
		}
	}()
	srv.query(Request{Kernel: "CC", Vertex: 1}, par.NewCancelToken())
}
