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
// count equals the count over runKernel's full output and the oracle's, and
// is read off the reach index: no kernel_micros, no snapshot built. Under
// -short (the race tiers) it covers scale 8 from 16 sources.
func TestReachIndexMatchesTraversal(t *testing.T) {
	scales, stride := []int{8, 10}, int64(1)
	if testing.Short() {
		scales = scales[:1]
	}
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
					opt := kernel.Options{Workers: 2, Mode: kernel.Baseline, Delta: spec.Delta, UndirectedView: in.Undirected}
					queries := int64(0)
					for src := graph.NodeID(0); int64(src) < n; src += graph.NodeID(stride) {
						want := bfsReached(in.Graph, src)
						for _, f := range fws {
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
// components and 199 rows of 4 words, over its 199 arcs, so NewServer leaves
// it unindexed and its reach queries run the kernel — the daemon's remaining
// BFS kernel path — and still answer right.
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
	if ix, st := newReachIndex(g); ix != nil || st.comps != n || st.rows != n-1 || st.bitsetBytes != 8*(n-1)*4 || st.bound != 8*(n-1) {
		t.Fatalf("path index %v, stats %+v: want refused, 199 rows of 4 words over 199 arcs", ix, st)
	}
	fws := []kernel.Framework{core.FrameworkByName("GAP")}
	core.PrepareViews(fws, []*core.Input{in})
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, fws...)
	if srv.reach["Path"] != nil {
		t.Fatal("NewServer indexed a graph over the bound")
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
	if st := srv.StatsSnapshot(); st.ReachHits != 0 {
		t.Errorf("reach hits = %d on an unindexed graph", st.ReachHits)
	}
}

// TestReachIndexMatchesOracleOnRandomDigraphs: on seeded random graphs —
// directed and undirected, sparse through dense, self-loops on odd trials,
// small enough for one bitset word and large enough for several — Tarjan's
// partition passes verify.CheckSCC and every vertex's count equals a BFS.
func TestReachIndexMatchesOracleOnRandomDigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5cc))
	indexed := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		if trial%3 == 2 {
			n = 64 + rng.Intn(256)
		}
		m := rng.Intn(n*[]int{1, 2, 6}[trial%3] + 1)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Int31n(int32(n)), V: rng.Int31n(int32(n))}
		}
		opt := graph.BuildOptions{NumNodes: int32(n), Directed: trial%5 != 0, KeepSelfLoops: trial%2 == 1}
		g, err := graph.Build(edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		ix, st := newReachIndex(g)
		if ix == nil {
			if st.bitsetBytes <= st.bound {
				t.Fatalf("trial %d: refused within the bound: %+v", trial, st)
			}
			continue
		}
		indexed++
		if err := verify.CheckSCC(g, ix.comp); err != nil {
			t.Fatalf("trial %d (n=%d m=%d %+v): %v", trial, n, m, opt, err)
		}
		for v := graph.NodeID(0); v < graph.NodeID(n); v++ {
			if got, want := ix.reach(v), bfsReached(g, v); got != want {
				t.Fatalf("trial %d (n=%d m=%d %+v): vertex %d reaches %d by the index, %d by a BFS", trial, n, m, opt, v, got, want)
			}
		}
	}
	if indexed < 250 {
		t.Errorf("only %d of 300 random graphs were indexed", indexed)
	}
}

// TestReachIndexCheckRejectsCorruptIndex: the build check NewServer runs
// refuses an index whose partition is not the SCCs and one whose counts are
// off, so neither is ever served.
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
}

// TestReachAnswerHoldsNoLeaseAndClosesProbe: a reach answer is served like a
// snapshot hit — with the pool's only machine held by a stalled SSSP it is
// still answered, and a half-open probe answered from the index closes the
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
	waitFor(t, func() bool { return srv.Pool().Outstanding() == 1 })

	want := bfsReached(in.Graph, 2)
	if r := srv.query(Request{Kernel: "BFS", Source: 2}, par.NewCancelToken()); r.Code != CodeOK || r.KernelMicros != 0 || r.Result.Reached != want {
		t.Errorf("reach answer behind a busy pool: %+v, want reached %d", r, want)
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
	if got := srv.Pool().Outstanding(); got != 1 {
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
