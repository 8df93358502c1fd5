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
	"gapbench/internal/invariant"
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
// every query the way the per-query reduction it replaced did — the length-k
// prefix of the stored top-100 is topK(scores, k), ties included.
func TestSnapshotReductionsMatchPerQueryScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(400)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(12)) / 12 // few distinct values: many ties
		}
		stored := topK(scores, snapshotTopK)
		for k := 1; k <= snapshotTopK; k++ {
			want := topK(scores, k)
			if got := stored[:min(k, len(stored))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: prefix of the stored top-%d = %v, topK = %v", n, k, snapshotTopK, got, want)
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
			if n := srv.pool.Outstanding(); n > maxLeases.Load() {
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
// SSSP, a PR hit is still answered — and only the build carries
// kernel_micros.
func TestSnapshotHitHoldsNoLease(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stallSSSP{stubFramework{"Stub"}})
	tok := par.NewCancelToken()

	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeOK || r.KernelMicros == 0 {
		t.Fatalf("PR build: %+v", r)
	}
	ssspDone := make(chan Response, 1)
	stalled := kernelQuery(t, srv, Request{Source: 1, BudgetMS: 2000})
	go func() { ssspDone <- srv.query(stalled, tok) }()
	waitFor(t, func() bool { return srv.pool.Outstanding() == 1 })

	pr := srv.query(Request{Kernel: "PR", K: 3}, tok)
	if pr.Code != CodeOK || len(pr.Result.TopK) != 3 || pr.KernelMicros != 0 {
		t.Errorf("PR hit behind a busy pool: %+v", pr)
	}
	if got := srv.pool.Outstanding(); got != 1 {
		t.Errorf("outstanding leases = %d, want 1 (the SSSP's)", got)
	}
	tok.Cancel()
	if r := <-ssspDone; r.Code != CodeDeadlineExceeded {
		t.Errorf("cancelled SSSP: %+v", r)
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
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, wrongPR{stubFramework{"Stub"}}, stubFramework{"Good"})

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
	// The healthy framework next to it keeps its own slot.
	if r := srv.query(Request{Kernel: "PR", Framework: "Good"}, par.NewCancelToken()); r.Code != CodeOK || r.KernelMicros == 0 {
		t.Errorf("Good's PR build beside a rejected PR: %+v", r)
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

// TestSnapshotReachJournalsAskedKernelVerified: a reach-index answer — BFS,
// SSSP or CC — journals the kernel it asked for, verified, with no trial
// behind it, and builds no snapshot.
func TestSnapshotReachJournalsAskedKernelVerified(t *testing.T) {
	in := smallInput(t)
	journal := filepath.Join(t.TempDir(), "served.jsonl")
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1, JournalPath: journal}, in, stubFramework{"Stub"})
	for _, req := range []Request{{Kernel: "BFS", Source: 1}, {Kernel: "BFS", Source: 2}, {Kernel: "SSSP", Source: 3}, {Kernel: "CC", Vertex: 4}} {
		if r := srv.query(req, par.NewCancelToken()); r.Code != CodeOK || r.Kernel != req.Kernel {
			t.Fatalf("%s from %d: %+v", req.Kernel, req.Source, r)
		}
	}
	results, err := core.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("journal has %d lines, want 4", len(results))
	}
	for i, want := range []string{"Stub|BFS|Kron|Baseline", "Stub|BFS|Kron|Baseline", "Stub|SSSP|Kron|Baseline", "Stub|CC|Kron|Baseline"} {
		hit := results[i]
		if hit.CellID() != want || hit.Status != core.OK || !hit.Verified || hit.Trials != 0 || len(hit.TrialRecords) != 0 {
			t.Errorf("reach journal line %d: %+v, want %s verified without trials", i, hit, want)
		}
	}
	if st := srv.StatsSnapshot(); st.ReachHits != 4 || st.SnapshotBuilds != 0 || st.SnapshotHits != 0 {
		t.Errorf("reach hits %d, snapshot builds %d hits %d, want 4/0/0", st.ReachHits, st.SnapshotBuilds, st.SnapshotHits)
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
		if r := srv.query(Request{Kernel: "PR"}, par.NewCancelToken()); r.Code != CodeOK {
			t.Fatalf("PR %d: %+v", i, r)
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
	if hit.CellID() != "Stub|PR|Kron|Baseline" || hit.GraphEpoch != in.Graph.Epoch() {
		t.Errorf("hit CellID %q epoch %#x", hit.CellID(), hit.GraphEpoch)
	}
}

// ---- servecheck ------------------------------------------------------------

// TestSnapshotEpochMismatchPanicsUnderServecheck: serving a snapshot for a
// graph epoch it was not built on trips the sanitizer.
func TestSnapshotEpochMismatchPanicsUnderServecheck(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	in := smallInput(t)
	srv := newTestServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	if r := srv.query(Request{Kernel: "PR"}, par.NewCancelToken()); r.Code != CodeOK {
		t.Fatalf("build: %+v", r)
	}
	// Swap the published snapshot for one stamped with another epoch, as if
	// the graph had moved on underneath it.
	slot := srv.snaps.slots[snapKey{"Kron", "Stub"}]
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
