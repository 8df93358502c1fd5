package serve

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

// ---- stub frameworks -------------------------------------------------------
// The serving fault paths are driven by stubs that misbehave in SSSP only, so
// a PR snapshot build against the same server (buildPR: a lease and a kernel
// run) proves the daemon keeps serving around the fault (same idiom as
// internal/core's fault tests). An SSSP with a target is the query that runs
// its kernel per query (a CC query or a target-less BFS or SSSP is a
// reach-index read), so those tests send kernelQuery.

type stubFramework struct{ name string }

func (f stubFramework) Name() string { return f.name }
func (stubFramework) BFS(g *graph.Graph, src graph.NodeID, opt kernel.Options) []graph.NodeID {
	parent := make([]graph.NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	return parent
}
func (stubFramework) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	return make([]kernel.Dist, g.NumNodes())
}

// PR answers with the serial oracle: a snapshot build checks the whole result,
// so a stub that serves it has to be right. gapd never runs CC (the reach
// index answers it); the stub's CC is the oracle's too.
func (stubFramework) PR(g *graph.Graph, opt kernel.Options) []float64 {
	return verify.PageRank(g, kernel.PRMaxIters, kernel.PRTolerance)
}
func (stubFramework) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return verify.Components(g)
}
func (stubFramework) BC(g *graph.Graph, sources []graph.NodeID, opt kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (stubFramework) TC(g *graph.Graph, opt kernel.Options) int64 { return 0 }

// panicSSSP panics on every SSSP call.
type panicSSSP struct{ stubFramework }

func (f panicSSSP) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	panic("stub: SSSP exploded")
}

// flakySSSP panics on the first SSSP call only — the transient fault the
// retry policy exists for.
type flakySSSP struct {
	stubFramework
	calls *atomic.Int32
}

func (f flakySSSP) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	if f.calls.Add(1) == 1 {
		panic("stub: transient wobble")
	}
	return f.stubFramework.SSSP(g, src, opt)
}

// stallSSSP blocks cooperatively until the query token fires — the
// well-behaved slow kernel (TimedOut, machine kept).
type stallSSSP struct{ stubFramework }

func (f stallSSSP) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	for !opt.Cancelled() {
		time.Sleep(100 * time.Microsecond)
	}
	return f.stubFramework.SSSP(g, src, opt)
}

// hangFor bounds how long the misbehaving stubs ignore cancellation, so the
// abandoned machines can be reaped before the tests' drain deadlines.
const hangFor = 300 * time.Millisecond

// hangSSSP ignores the token entirely for hangFor — the misbehaving kernel
// whose machine is abandoned.
type hangSSSP struct{ stubFramework }

func (f hangSSSP) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	time.Sleep(hangFor)
	return f.stubFramework.SSSP(g, src, opt)
}

// recoveringSSSP hangs for its first N calls, then behaves — the quarantine-
// then-probe-then-close path of the circuit breaker.
type recoveringSSSP struct {
	stubFramework
	calls *atomic.Int32
	bad   int32
}

func (f recoveringSSSP) SSSP(g *graph.Graph, src graph.NodeID, opt kernel.Options) []kernel.Dist {
	if f.calls.Add(1) <= f.bad {
		time.Sleep(hangFor)
	}
	return f.stubFramework.SSSP(g, src, opt)
}

// ---- harness ---------------------------------------------------------------

func smallInput(t *testing.T) *core.Input {
	t.Helper()
	return loadInput(t, core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
}

// kernelQuery turns req into an SSSP with a target, the query that runs its
// kernel per query on every graph, and fails the test unless srv plans it as
// a kernel run (no reach index, no snapshot slot). A routing change therefore
// cannot quietly turn a fault test into a lookup.
func kernelQuery(t *testing.T, srv *Server, req Request) Request {
	t.Helper()
	target := int64(0)
	req.Kernel, req.Target = "SSSP", &target
	if p, refused := srv.plan(req); refused != nil || p.reach != nil || p.slot != nil {
		t.Fatalf("%+v is not planned as a kernel run (refused: %+v)", req, refused)
	}
	return req
}

// buildPR sends a PR query on c that must lead a snapshot build — a lease and
// a kernel run — and fails the test, naming what, unless it answered OK and
// built. A PR query that found a published snapshot fails it too.
func buildPR(t *testing.T, srv *Server, c *testClient, what string) {
	t.Helper()
	before := srv.StatsSnapshot().SnapshotBuilds
	if resp := c.do(Request{Kernel: "PR"}); resp.Code != CodeOK || srv.StatsSnapshot().SnapshotBuilds != before+1 {
		t.Fatalf("%s: %+v, want OK from a snapshot build", what, resp)
	}
}

func loadInput(t testing.TB, spec core.GraphSpec) *core.Input {
	t.Helper()
	in, err := core.LoadInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := in.Close(); err != nil {
			t.Errorf("closing input: %v", err)
		}
	})
	return in
}

// startServer builds and serves a Server on a unix socket; the test owns
// Shutdown (a cleanup drains defensively for tests that fail early).
func startServer(t *testing.T, cfg Config, in *core.Input, fws ...kernel.Framework) (*Server, string) {
	t.Helper()
	cfg.Logf = t.Logf
	cfg.Retry.MaxRetries = 1 // gapd's -retries default
	srv, err := NewServer(cfg, []*core.Input{in}, fws)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "gapd.sock")
	l, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
	return srv, sock
}

type testClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, sock string) *testClient {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &testClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *testClient) send(req Request) {
	c.t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testClient) recv() Response {
	c.t.Helper()
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("reading response: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		c.t.Fatalf("bad response line %q: %v", line, err)
	}
	return resp
}

func (c *testClient) do(req Request) Response {
	c.send(req)
	return c.recv()
}

// ---- tests -----------------------------------------------------------------

func TestServeEndToEndRealFramework(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 2, Workers: 2}, in, core.FrameworkByName("GAP"))
	c := dial(t, sock)

	if resp := c.do(Request{Op: OpPing, ID: "p"}); resp.Code != CodeOK || resp.ID != "p" {
		t.Fatalf("ping: %+v", resp)
	}
	resp := c.do(Request{Op: OpGraphs})
	if resp.Code != CodeOK || len(resp.Graphs) != 1 || resp.Graphs[0].Name != "Kron" {
		t.Fatalf("graphs: %+v", resp)
	}
	n := resp.Graphs[0].Nodes
	if n != int64(in.Graph.NumNodes()) {
		t.Errorf("graphs reported %d nodes, input has %d", n, in.Graph.NumNodes())
	}

	src := int64(in.Sources[0])
	bfs := c.do(Request{Kernel: "BFS", Graph: "Kron", Source: src})
	if bfs.Code != CodeOK || bfs.Result == nil || bfs.Result.Reached < 1 {
		t.Fatalf("BFS: %+v", bfs)
	}
	target := int64(in.Sources[1])
	sssp := c.do(Request{Kernel: "SSSP", Graph: "Kron", Source: src, Target: &target})
	if sssp.Code != CodeOK || sssp.Result == nil || sssp.Result.Reached < 1 {
		t.Fatalf("SSSP: %+v", sssp)
	}
	pr := c.do(Request{Kernel: "PR", Graph: "Kron", K: 5})
	if pr.Code != CodeOK || pr.Result == nil || len(pr.Result.TopK) != 5 {
		t.Fatalf("PR: %+v", pr)
	}
	for i := 1; i < len(pr.Result.TopK); i++ {
		if pr.Result.TopK[i].Score > pr.Result.TopK[i-1].Score {
			t.Errorf("PR topk not sorted: %+v", pr.Result.TopK)
		}
	}
	cc := c.do(Request{Kernel: "CC", Graph: "Kron", Vertex: src})
	labels := verify.Components(in.Graph)
	if cc.Code != CodeOK || cc.Result == nil || cc.Result.Component != int64(labels[src]) || cc.KernelMicros != 0 {
		t.Fatalf("CC: %+v, want the canonical label %d off the reach index", cc, labels[src])
	}
	// Kron is undirected, so the target-less BFS, read off the reach index
	// with no kernel run, reached exactly the source's component; the SSSP,
	// having a target, ran its kernel.
	if bfs.Kernel != "BFS" || bfs.KernelMicros != 0 || bfs.Result.Reached != cc.Result.Size {
		t.Errorf("BFS reached %d (kernel %q, kernel_micros %d), CC of the source has size %d",
			bfs.Result.Reached, bfs.Kernel, bfs.KernelMicros, cc.Result.Size)
	}
	if sssp.KernelMicros == 0 {
		t.Errorf("SSSP to a target carries no kernel_micros: %+v", sssp)
	}

	// The snapshot cap (check.sh's header names this test for it): the PR
	// above built the one snapshot, so repeats of PR, over two connections,
	// are all hits, and CC never builds one — never a whole-graph recompute.
	const repeats = 20 // of each kernel
	conns := []*testClient{c, dial(t, sock)}
	for i := 0; i < repeats; i++ {
		for _, req := range []Request{
			{Kernel: "PR", Graph: "Kron", K: 3},
			{Kernel: "CC", Graph: "Kron", Vertex: int64(in.Sources[i%len(in.Sources)])},
		} {
			if resp := conns[i%2].do(req); resp.Code != CodeOK {
				t.Fatalf("repeat %d of %s: %+v", i, req.Kernel, resp)
			}
		}
	}

	st := c.do(Request{Op: OpStats})
	if st.Stats == nil || st.Stats.OK != 4+2*repeats || st.Stats.Accepted != 4+2*repeats {
		t.Fatalf("stats: %+v", st.Stats)
	}
	if st.Stats.SnapshotBuilds != 1 || st.Stats.SnapshotHits != repeats || st.Stats.SnapshotFailed != 0 || st.Stats.ReachHits != 2+repeats {
		t.Errorf("snapshot builds %d hits %d failed %d, reach hits %d, want 1 build, %d hits, 0 failed, %d reach hits",
			st.Stats.SnapshotBuilds, st.Stats.SnapshotHits, st.Stats.SnapshotFailed, st.Stats.ReachHits, repeats, 2+repeats)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.pool.Outstanding(); got != 0 {
		t.Errorf("outstanding leases after drain = %d", got)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	in := smallInput(t)
	_, sock := startServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	c := dial(t, sock)
	n := int64(in.Graph.NumNodes())
	one := int64(1)

	cases := []struct {
		name string
		req  Request
		code Code
	}{
		{"unknown kernel", Request{Kernel: "BC"}, CodeInvalidArgument},
		{"unknown graph", Request{Kernel: "BFS", Graph: "Nope"}, CodeNotFound},
		{"unknown framework", Request{Kernel: "BFS", Graph: "Kron", Framework: "Nope"}, CodeNotFound},
		{"source out of range", Request{Kernel: "BFS", Graph: "Kron", Source: n}, CodeInvalidArgument},
		{"target on BFS", Request{Kernel: "BFS", Graph: "Kron", Source: 1, Target: &one}, CodeInvalidArgument},
		{"target out of range", Request{Kernel: "SSSP", Graph: "Kron", Source: 1, Target: &n}, CodeInvalidArgument},
		{"negative vertex", Request{Kernel: "CC", Graph: "Kron", Vertex: -1}, CodeInvalidArgument},
		{"unknown op", Request{Op: "frobnicate"}, CodeInvalidArgument},
	}
	for _, tc := range cases {
		if resp := c.do(tc.req); resp.Code != tc.code {
			t.Errorf("%s: code = %s (%s), want %s", tc.name, resp.Code, resp.Error, tc.code)
		}
	}
	// BFS has no per-target answer: a target is refused, not ignored.
	if resp := c.do(Request{Kernel: "BFS", Source: 1, Target: &one}); !strings.Contains(resp.Error, "target is SSSP-only") {
		t.Errorf("BFS with a target: %+v, want \"target is SSSP-only\"", resp)
	}
	// A malformed line answers INVALID_ARGUMENT instead of killing the
	// connection.
	if _, err := c.conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	if resp := c.recv(); resp.Code != CodeInvalidArgument {
		t.Errorf("malformed line: %+v", resp)
	}
	// The connection still serves after the garbage.
	if resp := c.do(Request{Op: OpPing}); resp.Code != CodeOK {
		t.Errorf("ping after garbage: %+v", resp)
	}
	// Kernel name is case-insensitive; empty graph defaults when only one is
	// served.
	if resp := c.do(Request{Kernel: "bfs", Source: 1}); resp.Code != CodeOK {
		t.Errorf("lowercase kernel on default graph: %+v", resp)
	}
}

// TestNewServerRefusedIndexLeavesNothingRunning: NewServer builds the
// graphs' reach indexes concurrently, and when one fails its check the
// server is refused only after every index build has ended — no goroutine is
// left building one — with the first refused graph in graph order named.
func TestNewServerRefusedIndexLeavesNothingRunning(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// bent is a directed 3-cycle whose in-rows each list the vertex itself:
	// its out-arcs make one strongly connected component, its in-arcs do
	// not, so the index check refuses it at once.
	bent := func(name string) *core.Input {
		g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, graph.BuildOptions{Directed: true})
		if err != nil {
			t.Fatal(err)
		}
		_, in := g.RawIn()
		for v := range in {
			in[v] = graph.NodeID(v)
		}
		return &core.Input{Spec: core.GraphSpec{Name: name}, Graph: g}
	}
	road := loadInput(t, core.GraphSpec{Name: "Road", Scale: 14, Seed: 1, Delta: 64, SourceSeed: 5})
	web := loadInput(t, core.GraphSpec{Name: "Web", Scale: 12, Seed: 1, Delta: 16, SourceSeed: 5})
	inputs := []*core.Input{road, bent("BentA"), web, bent("BentB")}
	srv, err := NewServer(Config{PoolSize: 1, Workers: 1}, inputs, []kernel.Framework{core.FrameworkByName("GAP")})
	if srv != nil || err == nil || !strings.Contains(err.Error(), "reach index of BentA") {
		t.Fatalf("NewServer = %v, %v; want a refusal naming BentA", srv, err)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "serve.indexReach") {
		t.Fatalf("NewServer was refused while an index was still being built:\n%s", stacks)
	}
}

func TestServeBudgetStallCooperative(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 1, Workers: 1, Grace: 200 * time.Millisecond}, in, stallSSSP{stubFramework{"Stub"}})
	c := dial(t, sock)

	start := time.Now()
	resp := c.do(kernelQuery(t, srv, Request{Source: 1, BudgetMS: 60}))
	if resp.Code != CodeDeadlineExceeded {
		t.Fatalf("stalled query: %+v", resp)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("cooperative stall took %v, want ~budget (60ms)", elapsed)
	}
	// The kernel drained cooperatively: machine kept, no abandonment.
	if got := srv.pool.Abandoned(); got != 0 {
		t.Errorf("abandoned = %d after a cooperative stall", got)
	}
	// The same pool serves the next kernel run.
	buildPR(t, srv, c, "PR build after stall")
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeHangAbandonsAndSelfHeals(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 1, Workers: 1, Grace: 40 * time.Millisecond}, in, hangSSSP{stubFramework{"Stub"}})
	c := dial(t, sock)

	resp := c.do(kernelQuery(t, srv, Request{Source: 1, BudgetMS: 40}))
	if resp.Code != CodeDeadlineExceeded || !strings.Contains(resp.Error, "abandoned") {
		t.Fatalf("hung query: %+v", resp)
	}
	if got := srv.pool.Abandoned(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	// Self-healing: the replacement machine serves immediately, long before
	// the hung kernel (hangFor) returns.
	start := time.Now()
	buildPR(t, srv, c, "PR build after abandonment")
	if elapsed := time.Since(start); elapsed > hangFor {
		t.Errorf("replacement machine took %v — waited for the hung kernel?", elapsed)
	}
	// Drain joins the reaper (the hang is bounded), so no goroutine leaks.
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeRetriesTransientPanic(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 1, Workers: 1}, in, flakySSSP{stubFramework{"Stub"}, &atomic.Int32{}})
	c := dial(t, sock)

	resp := c.do(kernelQuery(t, srv, Request{Source: 1}))
	if resp.Code != CodeOK || resp.Retries != 1 {
		t.Fatalf("flaky query: code=%s retries=%d err=%q, want OK with 1 retry", resp.Code, resp.Retries, resp.Error)
	}
	if st := srv.StatsSnapshot(); st.Retries != 1 || st.Panics != 0 || st.OK != 1 {
		t.Errorf("stats after recovered retry: %+v", st)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeDeterministicPanicIsInternal(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 1, Workers: 1}, in, panicSSSP{stubFramework{"Stub"}})
	c := dial(t, sock)

	resp := c.do(kernelQuery(t, srv, Request{Source: 1}))
	if resp.Code != CodeInternal || !strings.Contains(resp.Error, "SSSP exploded") {
		t.Fatalf("panicking query: %+v", resp)
	}
	if resp.Retries != 1 {
		t.Errorf("retries = %d, want 1 (retried, panicked again)", resp.Retries)
	}
	// The daemon survives its kernels: the next kernel run is served.
	buildPR(t, srv, c, "PR build after panic")
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeQueueWatermarkSheds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{
		PoolSize: 1, Workers: 1,
		Admission: AdmissionConfig{MaxQueue: -1}, // no queue: inflight capped at 1
	}, in, stallSSSP{stubFramework{"Stub"}})
	cA, cB := dial(t, sock), dial(t, sock)

	// Fill the one slot with a stalled query, then overflow from a second
	// connection.
	cA.send(kernelQuery(t, srv, Request{Source: 1, BudgetMS: 400}))
	waitFor(t, func() bool { return srv.adm.Inflight() == 1 })
	start := time.Now()
	resp := cB.do(kernelQuery(t, srv, Request{Source: 2}))
	if resp.Code != CodeResourceExhausted {
		t.Fatalf("overflow query: %+v", resp)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("shed took %v, want immediate", elapsed)
	}
	if st := srv.StatsSnapshot(); st.ShedQueue != 1 {
		t.Errorf("shed_queue = %d, want 1", st.ShedQueue)
	}
	if resp := cA.recv(); resp.Code != CodeDeadlineExceeded {
		t.Fatalf("stalled query: %+v", resp)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeRateSheds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{
		PoolSize: 1, Workers: 1,
		Admission: AdmissionConfig{Rate: 0.5, Burst: 1},
	}, in, stubFramework{"Stub"})
	c := dial(t, sock)

	if resp := c.do(kernelQuery(t, srv, Request{Source: 1})); resp.Code != CodeOK {
		t.Fatalf("first query: %+v", resp)
	}
	if resp := c.do(kernelQuery(t, srv, Request{Source: 1})); resp.Code != CodeResourceExhausted {
		t.Fatalf("second query inside the rate window: %+v", resp)
	}
	if st := srv.StatsSnapshot(); st.ShedRate != 1 {
		t.Errorf("shed_rate = %d, want 1", st.ShedRate)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeBreakerQuarantineProbeClose(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{
		PoolSize: 2, Workers: 1,
		Grace:   30 * time.Millisecond,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 150 * time.Millisecond},
	}, in, recoveringSSSP{stubFramework{"Stub"}, &atomic.Int32{}, 2})
	c := dial(t, sock)

	// Two hanging queries lose two machines: the breaker opens.
	for i := 0; i < 2; i++ {
		resp := c.do(kernelQuery(t, srv, Request{Source: 1, BudgetMS: 40}))
		if resp.Code != CodeDeadlineExceeded {
			t.Fatalf("hang %d: %+v", i, resp)
		}
	}
	waitFor(t, func() bool { return srv.StatsSnapshot().BreakerOpens == 1 })

	// Quarantined: fail-fast UNAVAILABLE, no pool time, other kernels fine.
	resp := c.do(kernelQuery(t, srv, Request{Source: 1}))
	if resp.Code != CodeUnavailable || !strings.Contains(resp.Error, "quarantined") {
		t.Fatalf("quarantined query: %+v", resp)
	}
	buildPR(t, srv, c, "unrelated kernel during quarantine")
	if st := srv.StatsSnapshot(); st.BreakerShed != 1 {
		t.Errorf("breaker_shed = %d, want 1", st.BreakerShed)
	}

	// After the cooldown one probe goes through; the stub has recovered, so
	// the probe closes the circuit and traffic flows again.
	time.Sleep(180 * time.Millisecond)
	if resp := c.do(kernelQuery(t, srv, Request{Source: 1, BudgetMS: 400})); resp.Code != CodeOK {
		t.Fatalf("probe query: %+v", resp)
	}
	if resp := c.do(kernelQuery(t, srv, Request{Source: 2, BudgetMS: 400})); resp.Code != CodeOK {
		t.Fatalf("query after circuit closed: %+v", resp)
	}
	if st := srv.StatsSnapshot(); st.BreakerOpens != 1 {
		t.Errorf("breaker reopened: opens = %d, want 1", st.BreakerOpens)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeGracefulDrainUnderLoad(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 2, Workers: 1, Grace: 50 * time.Millisecond}, in, stallSSSP{stubFramework{"Stub"}})
	// Two stalled queries (one per connection — a connection serves its
	// requests in order) hold both machines, then SIGTERM-equivalent.
	cA, cB := dial(t, sock), dial(t, sock)
	cA.send(kernelQuery(t, srv, Request{Source: 1, ID: "a", BudgetMS: 5000}))
	cB.send(kernelQuery(t, srv, Request{Source: 2, ID: "b", BudgetMS: 5000}))
	waitFor(t, func() bool { return srv.adm.Inflight() == 2 })

	start := time.Now()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2500*time.Millisecond {
		t.Errorf("drain took %v, past the hard deadline", elapsed)
	}
	// The hard phase cancelled the connection tokens; the stalled queries
	// drained cooperatively as DEADLINE_EXCEEDED before the sockets closed.
	for i, cl := range []*testClient{cA, cB} {
		if resp := cl.recv(); resp.Code != CodeDeadlineExceeded {
			t.Errorf("drained query %d: %+v", i, resp)
		}
	}
	if got := srv.pool.Outstanding(); got != 0 {
		t.Errorf("outstanding leases after drain = %d", got)
	}
	// A fresh connection is refused (listener closed).
	if _, err := net.Dial("unix", sock); err == nil {
		t.Error("dial succeeded after drain")
	}
}

func TestServeJournalsQueryOutcomes(t *testing.T) {
	in := smallInput(t)
	journal := filepath.Join(t.TempDir(), "served.jsonl")
	srv, sock := startServer(t, Config{PoolSize: 1, Workers: 1, JournalPath: journal},
		in, stubFramework{"Stub"}, panicSSSP{stubFramework{"Boom"}})
	c := dial(t, sock)

	if resp := c.do(kernelQuery(t, srv, Request{Source: 1})); resp.Code != CodeOK {
		t.Fatalf("ok query: %+v", resp)
	}
	if resp := c.do(kernelQuery(t, srv, Request{Source: 1, Framework: "Boom"})); resp.Code != CodeInternal {
		t.Fatalf("panic query: %+v", resp)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	results, err := core.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(results))
	}
	okRes, boomRes := results[0], results[1]
	if okRes.CellID() != "Stub|SSSP|Kron|Baseline" {
		t.Errorf("ok CellID = %q", okRes.CellID())
	}
	// No oracle runs on a per-query kernel answer, and the journal says so
	// (the verified rows are the snapshot and reach-index answers: see
	// snapshot_test.go).
	if okRes.Status != core.OK || okRes.Verified || okRes.Trials != 1 || okRes.Seconds < 0 {
		t.Errorf("ok journal line: %+v", okRes)
	}
	if okRes.GraphEpoch != in.Graph.Epoch() {
		t.Errorf("journal epoch %#x, graph epoch %#x", okRes.GraphEpoch, in.Graph.Epoch())
	}
	if boomRes.CellID() != "Boom|SSSP|Kron|Baseline" {
		t.Errorf("panic CellID = %q", boomRes.CellID())
	}
	if boomRes.Status != core.Panicked || boomRes.Verified {
		t.Errorf("panic journal line: %+v", boomRes)
	}
	// The retry left two attempt records on the one journaled "trial".
	if len(boomRes.TrialRecords) != 2 {
		t.Errorf("panic TrialRecords = %d, want 2 (attempt + retry)", len(boomRes.TrialRecords))
	}
}

// waitFor polls cond to success or fails the test after 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- Listen socket handling ------------------------------------------------

func TestListenRefusesLiveSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "gapd.sock")
	l, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A second daemon against the same path must be refused, not silently
	// steal the live daemon's address by unlinking its socket.
	if _, err := Listen("unix:" + sock); err == nil {
		t.Fatal("second Listen bound over a live daemon's socket")
	}
	if _, err := os.Stat(sock); err != nil {
		t.Fatalf("live socket file was removed: %v", err)
	}
	// The first daemon still works.
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("live daemon unreachable after refused rebind: %v", err)
	}
	c.Close()
}

func TestListenReplacesStaleSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "gapd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed daemon: stop accepting but leave the socket file.
	l.(*net.UnixListener).SetUnlinkOnClose(false)
	l.Close()
	l2, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatalf("Listen over a stale socket: %v", err)
	}
	l2.Close()
}

func TestListenRefusesNonSocketFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gapd.sock")
	if err := os.WriteFile(path, []byte("not a socket"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Listen("unix:" + path); err == nil {
		t.Fatal("Listen bound over a regular file")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("regular file was deleted: %v", err)
	}
}
