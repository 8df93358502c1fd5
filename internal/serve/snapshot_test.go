package serve

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

// ---- stub frameworks -------------------------------------------------------

// countingPR counts its PR calls and takes long enough that a burst of first
// queries overlaps the build.
type countingPR struct {
	stubFramework
	calls *atomic.Int32
}

func (f countingPR) PR(g *graph.Graph, opt kernel.Options) []float64 {
	f.calls.Add(1)
	time.Sleep(20 * time.Millisecond)
	return f.stubFramework.PR(g, opt)
}

// stallOncePR blocks its first PR call cooperatively until the query token
// fires, then behaves — a build that outlives its leader's budget.
type stallOncePR struct {
	stubFramework
	calls *atomic.Int32
}

func (f stallOncePR) PR(g *graph.Graph, opt kernel.Options) []float64 {
	if f.calls.Add(1) == 1 {
		for !opt.Cancelled() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return f.stubFramework.PR(g, opt)
}

// wrongPR returns scores the oracle must reject.
type wrongPR struct{ stubFramework }

func (wrongPR) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}

// newTestServer builds a Server that tests query in-process (no socket).
func newTestServer(t *testing.T, cfg Config, in *core.Input, fws ...kernel.Framework) *Server {
	t.Helper()
	cfg.Logf = t.Logf
	cfg.Retry.MaxRetries = 1 // gapd's -retries default
	srv, err := NewServer(cfg, []*core.Input{in}, fws)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
	return srv
}

// ---- reductions ------------------------------------------------------------

// TestSnapshotReductionsMatchPerQueryScans: what a snapshot stores answers
// every query the way the per-query reductions it replaced did — the length-k
// prefix of the stored top-100 is topK(scores, k), ties included, and the
// size table is the label scan.
func TestSnapshotReductionsMatchPerQueryScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(400)
		scores := make([]float64, n)
		labels := make([]graph.NodeID, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(12)) / 12 // few distinct values: many ties
			labels[i] = graph.NodeID(rng.Intn(1 + n/8))
		}
		stored := topK(scores, snapshotTopK)
		for k := 1; k <= snapshotTopK; k++ {
			want := topK(scores, k)
			if got := stored[:min(k, len(stored))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: prefix of the stored top-%d = %v, topK = %v", n, k, snapshotTopK, got, want)
			}
		}
		sizes := componentSizes(labels)
		for v := range labels {
			scan := int64(0)
			for _, l := range labels {
				if l == labels[v] {
					scan++
				}
			}
			if got := sizes[labels[v]]; got != scan {
				t.Fatalf("n=%d vertex %d: size table says %d, label scan %d", n, v, got, scan)
			}
		}
	}
}

// ---- single flight ---------------------------------------------------------

// TestSnapshotSingleFlightBuildsOnce: a burst of first PR queries for one
// (graph, framework) runs the kernel once, holds at most one lease, and gives
// every query the same answer.
func TestSnapshotSingleFlightBuildsOnce(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const burst = 12
	in := smallInput(t)
	calls := &atomic.Int32{}
	srv := newTestServer(t, Config{PoolSize: 3, Workers: 1, Admission: AdmissionConfig{MaxQueue: burst}},
		in, countingPR{stubFramework{"Stub"}, calls})

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var maxLeases atomic.Int64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := srv.Pool().Outstanding(); n > maxLeases.Load() {
				maxLeases.Store(n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	resps := make([]Response, burst)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = srv.query(Request{Kernel: "PR", K: 7}, par.NewCancelToken())
		}(i)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	for i, r := range resps {
		if r.Code != CodeOK || r.Result == nil || len(r.Result.TopK) != 7 {
			t.Fatalf("query %d: %+v", i, r)
		}
		if !reflect.DeepEqual(r.Result, resps[0].Result) {
			t.Errorf("query %d answered %+v, query 0 %+v", i, r.Result, resps[0].Result)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("PR kernel ran %d times for one burst, want 1", got)
	}
	if got := maxLeases.Load(); got > 1 {
		t.Errorf("burst held %d leases at once, want at most 1 (waiters hold none)", got)
	}
	st := srv.StatsSnapshot()
	if st.SnapshotBuilds != 1 || st.SnapshotFailed != 0 || st.SnapshotHits != burst-1 {
		t.Errorf("builds=%d failed=%d hits=%d, want 1/0/%d", st.SnapshotBuilds, st.SnapshotFailed, st.SnapshotHits, burst-1)
	}
	if st.Accepted != burst || st.Completed != burst || st.OK != burst {
		t.Errorf("accepted=%d completed=%d ok=%d, want %d each (a hit is an admitted query)", st.Accepted, st.Completed, st.OK, burst)
	}
}

// TestSnapshotHitHoldsNoLease: with the pool's only machine held by a stalled
// BFS, PR and CC hits are still answered — and only the builds carry
// kernel_micros.
func TestSnapshotHitHoldsNoLease(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := asymmetricInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stallBFS{stubFramework{"Stub"}})
	tok := par.NewCancelToken()

	for _, req := range []Request{{Kernel: "PR"}, {Kernel: "CC", Vertex: 1}} {
		if r := srv.query(req, tok); r.Code != CodeOK {
			t.Fatalf("%s build: %+v", req.Kernel, r)
		}
	}
	bfsDone := make(chan Response, 1)
	go func() { bfsDone <- srv.query(Request{Kernel: "BFS", Source: 1, BudgetMS: 2000}, tok) }()
	waitFor(t, func() bool { return srv.Pool().Outstanding() == 1 })

	pr := srv.query(Request{Kernel: "PR", K: 3}, tok)
	if pr.Code != CodeOK || len(pr.Result.TopK) != 3 || pr.KernelMicros != 0 {
		t.Errorf("PR hit behind a busy pool: %+v", pr)
	}
	cc := srv.query(Request{Kernel: "CC", Vertex: 1}, tok)
	if cc.Code != CodeOK || cc.Result.Size < 1 || cc.KernelMicros != 0 {
		t.Errorf("CC hit behind a busy pool: %+v", cc)
	}
	if got := srv.Pool().Outstanding(); got != 1 {
		t.Errorf("outstanding leases = %d, want 1 (the BFS's)", got)
	}
	tok.Cancel()
	if r := <-bfsDone; r.Code != CodeDeadlineExceeded {
		t.Errorf("cancelled BFS: %+v", r)
	}
}

// TestSnapshotWaiterReleadsUnderOwnBudget: a waiter behind a leader whose
// short budget runs out on a stalled build does not inherit the leader's
// DEADLINE_EXCEEDED — it leads the rebuild with its own budget.
func TestSnapshotWaiterReleadsUnderOwnBudget(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	calls := &atomic.Int32{}
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stallOncePR{stubFramework{"Stub"}, calls})

	leader := make(chan Response, 1)
	go func() { leader <- srv.query(Request{Kernel: "PR", BudgetMS: 40}, par.NewCancelToken()) }()
	waitFor(t, func() bool { return calls.Load() == 1 })
	waiter := srv.query(Request{Kernel: "PR", BudgetMS: 2000}, par.NewCancelToken())

	if r := <-leader; r.Code != CodeDeadlineExceeded {
		t.Errorf("leader on a stalled build: %+v", r)
	}
	if waiter.Code != CodeOK || waiter.Result == nil || len(waiter.Result.TopK) == 0 {
		t.Fatalf("waiter: %+v, want OK from its own rebuild", waiter)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("PR kernel ran %d times, want 2 (stalled build + the waiter's rebuild)", got)
	}
	st := srv.StatsSnapshot()
	if st.SnapshotBuilds != 2 || st.SnapshotFailed != 1 {
		t.Errorf("builds=%d failed=%d, want 2/1", st.SnapshotBuilds, st.SnapshotFailed)
	}
	if r := srv.query(Request{Kernel: "PR"}, par.NewCancelToken()); r.Code != CodeOK || calls.Load() != 2 {
		t.Errorf("query after the rebuild: %+v, kernel runs %d", r, calls.Load())
	}
}

// TestSnapshotOracleRejectionIsNeverPublished: a build whose result the oracle
// rejects answers INTERNAL without the wrong scores, is not retried (the
// fault is deterministic), and leaves the slot empty.
func TestSnapshotOracleRejectionIsNeverPublished(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, wrongPR{stubFramework{"Stub"}})

	for i := 0; i < 2; i++ {
		r := srv.query(Request{Kernel: "PR"}, par.NewCancelToken())
		if r.Code != CodeInternal || !strings.Contains(r.Error, "oracle rejected") || r.Result != nil || r.Retries != 0 {
			t.Fatalf("query %d on a wrong PR: %+v", i, r)
		}
	}
	st := srv.StatsSnapshot()
	if st.SnapshotBuilds != 2 || st.SnapshotFailed != 2 || st.SnapshotHits != 0 || st.Panics != 0 {
		t.Errorf("builds=%d failed=%d hits=%d panics=%d, want 2/2/0/0", st.SnapshotBuilds, st.SnapshotFailed, st.SnapshotHits, st.Panics)
	}
	// The healthy kernel next to it keeps its own slot.
	if r := srv.query(Request{Kernel: "CC", Vertex: 1}, par.NewCancelToken()); r.Code != CodeOK {
		t.Errorf("CC beside a rejected PR: %+v", r)
	}
}

// ---- breaker accounting on the snapshot paths ------------------------------

// TestSnapshotProbeHitClosesCircuit: a half-open probe answered from a
// snapshot resolves the circuit instead of leaving it wedged half-open.
func TestSnapshotProbeHitClosesCircuit(t *testing.T) {
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond}}, in, stubFramework{"Stub"})
	tok := par.NewCancelToken()

	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeOK {
		t.Fatalf("build: %+v", r)
	}
	srv.breakers.OnAbandon("Stub", "PR", false) // opens the circuit
	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeUnavailable {
		t.Fatalf("query on an open circuit: %+v (a hit still passes the breaker)", r)
	}
	time.Sleep(15 * time.Millisecond)
	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeOK {
		t.Fatalf("probe answered from the snapshot: %+v", r)
	}
	if ok, probe := srv.breakers.Allow("Stub", "PR"); !ok || probe {
		t.Errorf("after the probe hit: ok=%v probe=%v, want a closed circuit", ok, probe)
	}
}

// TestSnapshotHitDoesNotResetAbandonmentCount: a non-probe hit ran no kernel,
// so it must not reset the count of consecutive abandonments the way a
// completed kernel run does.
func TestSnapshotHitDoesNotResetAbandonmentCount(t *testing.T) {
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour}}, in, stubFramework{"Stub"})
	tok := par.NewCancelToken()

	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeOK {
		t.Fatalf("build: %+v", r)
	}
	srv.breakers.OnAbandon("Stub", "PR", false)
	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeOK {
		t.Fatalf("hit: %+v", r)
	}
	srv.breakers.OnAbandon("Stub", "PR", false)
	if ok, _ := srv.breakers.Allow("Stub", "PR"); ok {
		t.Error("a snapshot hit between two abandonments kept the circuit closed")
	}
}

// TestSnapshotWaitingProbeTimeoutResetsProbe: a probe that waits behind
// another query's build and runs out of budget ran nothing, and must reset
// its circuit to open rather than leave it half-open forever.
func TestSnapshotWaitingProbeTimeoutResetsProbe(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	calls := &atomic.Int32{}
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond}}, in, stallOncePR{stubFramework{"Stub"}, calls})

	leader := make(chan Response, 1)
	go func() { leader <- srv.query(Request{Kernel: "PR", BudgetMS: 300}, par.NewCancelToken()) }()
	waitFor(t, func() bool { return calls.Load() == 1 })
	srv.breakers.OnAbandon("Stub", "PR", false) // opens while the build is in flight
	time.Sleep(15 * time.Millisecond)

	probe := srv.query(Request{Kernel: "PR", BudgetMS: 30}, par.NewCancelToken())
	if probe.Code != CodeDeadlineExceeded || !strings.Contains(probe.Error, "snapshot build") {
		t.Fatalf("probe waiting behind a stalled build: %+v", probe)
	}
	time.Sleep(15 * time.Millisecond)
	if ok, again := srv.breakers.Allow("Stub", "PR"); !ok || !again {
		t.Errorf("after the dropped probe: ok=%v probe=%v, want a fresh probe allowed (circuit not wedged half-open)", ok, again)
	}
	if r := <-leader; r.Code != CodeDeadlineExceeded {
		t.Errorf("leader: %+v", r)
	}
}

// ---- reach answers ---------------------------------------------------------

// TestSnapshotReachMatchesTraversal: on every suite graph, with every
// framework, the served BFS and SSSP Reached equals the count over
// runKernel's full output and the oracle's. On the symmetric graphs (Kron,
// Urand, Road) the answers come from the CC snapshot, one build per
// framework; on Twitter and Web the kernel runs and no snapshot is touched.
func TestSnapshotReachMatchesTraversal(t *testing.T) {
	const sources = 16
	for _, spec := range core.DefaultSuite(8) {
		spec.Scale = 8
		t.Run(spec.Name, func(t *testing.T) {
			in := loadInput(t, spec)
			fws := core.Frameworks()
			core.PrepareViews(fws, []*core.Input{in})
			srv := newTestServer(t, Config{PoolSize: 1, Workers: 2}, in, fws...)
			sym := spec.Name != "Twitter" && spec.Name != "Web"
			if got := symmetric(in.Graph); got != sym {
				t.Fatalf("symmetric(%s) = %v, want %v", spec.Name, got, sym)
			}
			n := int64(in.Graph.NumNodes())
			opt := kernel.Options{Workers: 2, Mode: kernel.Baseline, Delta: spec.Delta, UndirectedView: in.Undirected}
			for _, f := range fws {
				for i := int64(0); i < sources; i++ {
					src := graph.NodeID(i * n / sources)
					want := bfsReached(in.Graph, src)
					for _, k := range []core.Kernel{core.BFS, core.SSSP} {
						full, _ := runKernel(&queryPlan{f: f, k: k, asked: k, src: src, target: -1}, in.Graph, opt)()
						r := srv.query(Request{Kernel: string(k), Framework: f.Name(), Source: int64(src)}, par.NewCancelToken())
						if r.Code != CodeOK || r.Kernel != string(k) || r.Result.Reached != full.Reached || full.Reached != want {
							t.Fatalf("%s %s from %d: served %+v (%+v), runKernel reached %d, oracle %d",
								f.Name(), k, src, r, r.Result, full.Reached, want)
						}
					}
				}
			}
			st := srv.StatsSnapshot()
			wantBuilds, wantHits := int64(0), int64(0)
			if sym {
				wantBuilds, wantHits = int64(len(fws)), int64(len(fws)*(2*sources-1))
			}
			if st.SnapshotBuilds != wantBuilds || st.SnapshotHits != wantHits || st.SnapshotFailed != 0 {
				t.Errorf("builds=%d hits=%d failed=%d, want %d/%d/0", st.SnapshotBuilds, st.SnapshotHits, st.SnapshotFailed, wantBuilds, wantHits)
			}
		})
	}
}

// TestSnapshotReachSymmetryDetector: symmetric holds exactly when every arc's
// reverse is present — undirected graphs and Road's two-way streets, not
// Twitter or Web, and not Road with one reverse arc dropped.
func TestSnapshotReachSymmetryDetector(t *testing.T) {
	road := loadInput(t, core.GraphSpec{Name: "Road", Scale: 6, Seed: 1, Delta: 64, SourceSeed: 5})
	if !road.Graph.Directed() {
		t.Fatal("Road is stored undirected; the CSR comparison would go untested")
	}
	var arcs []graph.Edge
	dropped := false
	index, neigh := road.Graph.RawOut()
	for u := 0; u+1 < len(index); u++ {
		for _, v := range neigh[index[u]:index[u+1]] {
			if !dropped && graph.NodeID(u) > v {
				dropped = true // the reverse of v->u
				continue
			}
			arcs = append(arcs, graph.Edge{U: graph.NodeID(u), V: v})
		}
	}
	oneWay, err := graph.Build(arcs, graph.BuildOptions{NumNodes: road.Graph.NumNodes(), Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = oneWay.Close() })

	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"undirected Kron", smallInput(t).Graph, true},
		{"Road", road.Graph, true},
		{"Twitter", loadInput(t, core.GraphSpec{Name: "Twitter", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5}).Graph, false},
		{"Web", loadInput(t, core.GraphSpec{Name: "Web", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5}).Graph, false},
		{"Road minus one reverse arc", oneWay, false},
	} {
		if got := symmetric(tc.g); got != tc.want {
			t.Errorf("symmetric(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSnapshotReachJournalsAskedKernelVerified: the reach query that leads the
// build journals the CC cell it ran; a reach hit journals the kernel it
// asked for, verified, with no trial behind it.
func TestSnapshotReachJournalsAskedKernelVerified(t *testing.T) {
	in := smallInput(t)
	journal := filepath.Join(t.TempDir(), "served.jsonl")
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1, JournalPath: journal}, in, stubFramework{"Stub"})
	for _, req := range []Request{{Kernel: "BFS", Source: 1}, {Kernel: "BFS", Source: 2}, {Kernel: "SSSP", Source: 3}} {
		if r := srv.query(req, par.NewCancelToken()); r.Code != CodeOK || r.Kernel != req.Kernel {
			t.Fatalf("%s from %d: %+v", req.Kernel, req.Source, r)
		}
	}
	results, err := core.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(results))
	}
	build := results[0]
	if build.CellID() != "Stub|CC|Kron|Baseline" || build.Status != core.OK || !build.Verified || len(build.TrialRecords) != 1 {
		t.Errorf("build journal line: %+v", build)
	}
	for i, want := range []string{"Stub|BFS|Kron|Baseline", "Stub|SSSP|Kron|Baseline"} {
		hit := results[1+i]
		if hit.CellID() != want || hit.Status != core.OK || !hit.Verified || hit.Trials != 0 || len(hit.TrialRecords) != 0 {
			t.Errorf("hit journal line %d: %+v, want %s verified without trials", i, hit, want)
		}
	}
}

// ---- journal ---------------------------------------------------------------

// TestSnapshotJournalsBuildOnceAndHitsWithoutTrials: the build journals as the
// verified cell it is; a hit journals verified too, with no trial behind it.
func TestSnapshotJournalsBuildOnceAndHitsWithoutTrials(t *testing.T) {
	in := smallInput(t)
	journal := filepath.Join(t.TempDir(), "served.jsonl")
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1, JournalPath: journal}, in, stubFramework{"Stub"})
	for i := 0; i < 2; i++ {
		if r := srv.query(Request{Kernel: "CC", Vertex: 1}, par.NewCancelToken()); r.Code != CodeOK {
			t.Fatalf("CC %d: %+v", i, r)
		}
	}
	results, err := core.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(results))
	}
	build, hit := results[0], results[1]
	if build.Status != core.OK || !build.Verified || build.Trials != 1 || len(build.TrialRecords) != 1 || build.Seconds < 0 {
		t.Errorf("build journal line: %+v", build)
	}
	if hit.Status != core.OK || !hit.Verified || hit.Trials != 0 || len(hit.TrialRecords) != 0 {
		t.Errorf("hit journal line: %+v", hit)
	}
	if hit.CellID() != "Stub|CC|Kron|Baseline" || hit.GraphEpoch != in.Graph.Epoch() {
		t.Errorf("hit CellID %q epoch %#x", hit.CellID(), hit.GraphEpoch)
	}
}

// ---- servecheck ------------------------------------------------------------

// TestSnapshotEpochMismatchPanicsUnderServecheck: serving a snapshot for a
// graph epoch it was not built on trips the sanitizer.
func TestSnapshotEpochMismatchPanicsUnderServecheck(t *testing.T) {
	if !CheckEnabled() {
		t.Skip("needs -tags=servecheck")
	}
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	if r := srv.query(Request{Kernel: "PR"}, par.NewCancelToken()); r.Code != CodeOK {
		t.Fatalf("build: %+v", r)
	}
	// Swap the published snapshot for one stamped with another epoch, as if
	// the graph had moved on underneath it.
	slot := srv.snaps.slots[snapKey{"Kron", "Stub", core.PR}]
	stale := *slot.snap.Load()
	stale.epoch++
	slot.snap.Store(&stale)

	defer func() {
		if pv := recover(); pv == nil || !strings.Contains(pv.(string), "servecheck: snapshot built at graph epoch") {
			t.Errorf("stale snapshot served; recovered %v", pv)
		}
	}()
	srv.query(Request{Kernel: "PR"}, par.NewCancelToken())
}

// TestSnapshotReachCheckPanicsUnderServecheck: a reach answer read off a
// corrupted CC snapshot trips the sampled servecheck recomputation within
// reachCheckEvery queries.
func TestSnapshotReachCheckPanicsUnderServecheck(t *testing.T) {
	if !CheckEnabled() {
		t.Skip("needs -tags=servecheck")
	}
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	if r := srv.query(Request{Kernel: "CC", Vertex: 1}, par.NewCancelToken()); r.Code != CodeOK {
		t.Fatalf("build: %+v", r)
	}
	// Swap the published snapshot for one whose every component is one
	// vertex too large.
	slot := srv.snaps.slots[snapKey{"Kron", "Stub", core.CC}]
	bad := *slot.snap.Load()
	bad.sizes = map[graph.NodeID]int64{}
	for l, n := range slot.snap.Load().sizes {
		bad.sizes[l] = n + 1
	}
	slot.snap.Store(&bad)

	defer func() {
		if pv := recover(); pv == nil || !strings.Contains(pv.(string), "servecheck: reachAnswerCheck") {
			t.Errorf("corrupted reach answers served; recovered %v", pv)
		}
	}()
	for i := 0; i < reachCheckEvery; i++ {
		srv.query(Request{Kernel: "BFS", Source: int64(i) % int64(in.Graph.NumNodes())}, par.NewCancelToken())
	}
}
