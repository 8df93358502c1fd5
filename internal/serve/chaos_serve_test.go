package serve

// Chaos-wired e2e: the daemon serves a real framework wrapped in the chaos
// injector (internal/chaos) and must survive the full fault matrix — shed,
// retry, quarantine, keep serving, never crash, never leak a machine lease.
// Faults arm only under `go test -tags=chaos`; without the tag every test
// here skips (same convention as internal/core's chaos e2e).

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gapbench/internal/chaos"
	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

// chaosHang bounds how long injected Hang faults ignore cancellation, so
// drains can reap the abandoned machines within test deadlines.
const chaosHang = 200 * time.Millisecond

func requireChaos(t *testing.T) {
	t.Helper()
	if !chaos.Enabled() {
		t.Skip("needs -tags=chaos")
	}
}

func startChaosServer(t *testing.T, cfg Config, in *core.Input, faults ...*chaos.Fault) (*Server, string) {
	t.Helper()
	inj := chaos.Wrap(core.FrameworkByName("GAP"), 1, faults...)
	return startServer(t, cfg, in, inj)
}

func TestChaosServePanicRetryRecovers(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Panic, Once: true})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "BFS", Source: 1})
	if resp.Code != CodeOK || resp.Retries != 1 {
		t.Fatalf("once-panic query: code=%s retries=%d err=%q, want OK after 1 retry", resp.Code, resp.Retries, resp.Error)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeDeterministicPanicKeepsServing(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "PR", Mode: chaos.Panic})
	c := dial(t, sock)

	// Every query leads a build that panicks (and its retry too); none is
	// cached, so the second query fails the same way.
	for i := 0; i < 2; i++ {
		resp := c.do(Request{Kernel: "PR"})
		if resp.Code != CodeInternal || !strings.Contains(resp.Error, "chaos: injected panic") {
			t.Fatalf("panicking PR %d: %+v", i, resp)
		}
	}
	if st := srv.StatsSnapshot(); st.SnapshotBuilds != 2 || st.SnapshotFailed != 2 || st.SnapshotHits != 0 {
		t.Errorf("builds=%d failed=%d hits=%d after two panicking PR queries, want 2/2/0", st.SnapshotBuilds, st.SnapshotFailed, st.SnapshotHits)
	}
	// The daemon survives and the untargeted kernels keep serving.
	for _, req := range []Request{{Kernel: "BFS", Source: 1}, {Kernel: "CC", Vertex: 1}} {
		if r := c.do(req); r.Code != CodeOK {
			t.Fatalf("%s after panic: %+v", req.Kernel, r)
		}
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeStallTimesOutMachineKept(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1, Grace: 100 * time.Millisecond}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Stall})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 50})
	if resp.Code != CodeDeadlineExceeded {
		t.Fatalf("stalled query: %+v", resp)
	}
	if got := srv.Pool().Abandoned(); got != 0 {
		t.Errorf("cooperative stall abandoned %d machines", got)
	}
	if r := c.do(Request{Kernel: "CC", Vertex: 1}); r.Code != CodeOK {
		t.Fatalf("CC after stall: %+v", r)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeHangAbandonsHealsAndDrainsClean(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1, Grace: 40 * time.Millisecond}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, HangExtra: chaosHang})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 40})
	if resp.Code != CodeDeadlineExceeded || !strings.Contains(resp.Error, "abandoned") {
		t.Fatalf("hung query: %+v", resp)
	}
	if got := srv.Pool().Abandoned(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	// Self-healed pool keeps serving while the hung kernel sleeps on.
	if r := c.do(Request{Kernel: "CC", Vertex: 1}); r.Code != CodeOK {
		t.Fatalf("CC after hang: %+v", r)
	}
	// The drain must reap the abandoned machine and prove zero leases leaked
	// (panics under -tags=servecheck, errors otherwise — nil means clean).
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown after hang: %v", err)
	}
	if got := srv.Pool().Outstanding(); got != 0 {
		t.Errorf("outstanding leases after drain = %d", got)
	}
}

func TestChaosServeBreakerOpensAndProbeCloses(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	// Three one-shot Hang faults: exactly three consecutive abandonments,
	// then the framework is healthy again — the breaker must open at the
	// third and close on the post-cooldown probe.
	srv, sock := startChaosServer(t, Config{
		PoolSize: 1, Workers: 1,
		Grace:   30 * time.Millisecond,
		Breaker: BreakerConfig{Threshold: 3, Cooldown: 150 * time.Millisecond},
	}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, Once: true, HangExtra: chaosHang},
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, Once: true, HangExtra: chaosHang},
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, Once: true, HangExtra: chaosHang},
	)
	c := dial(t, sock)

	for i := 0; i < 3; i++ {
		resp := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 40})
		if resp.Code != CodeDeadlineExceeded {
			t.Fatalf("hang %d: %+v", i, resp)
		}
	}
	waitFor(t, func() bool { return srv.StatsSnapshot().BreakerOpens == 1 })

	// Open: fail-fast, no machine spent.
	resp := c.do(Request{Kernel: "BFS", Source: 1})
	if resp.Code != CodeUnavailable || !strings.Contains(resp.Error, "quarantined") {
		t.Fatalf("quarantined query: %+v", resp)
	}
	abandonedBefore := srv.Pool().Abandoned()

	// Cooldown, then the probe (faults exhausted → clean run) closes it.
	time.Sleep(180 * time.Millisecond)
	if r := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 2000}); r.Code != CodeOK {
		t.Fatalf("probe query: %+v", r)
	}
	if r := c.do(Request{Kernel: "BFS", Source: 2, BudgetMS: 2000}); r.Code != CodeOK {
		t.Fatalf("query after close: %+v", r)
	}
	st := srv.StatsSnapshot()
	if st.BreakerOpens != 1 {
		t.Errorf("breaker_opens = %d, want 1 (no reopen after recovery)", st.BreakerOpens)
	}
	if got := srv.Pool().Abandoned(); got != abandonedBefore {
		t.Errorf("quarantine/probe cost %d extra machines", got-abandonedBefore)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeCorruptGraphTrippedByGraphguard(t *testing.T) {
	requireChaos(t)
	if !graph.GuardEnabled() {
		t.Skip("needs -tags=chaos,graphguard (seal checks are no-ops otherwise)")
	}
	// Dedicated input: the injected corruption permanently poisons the
	// shared CSR, so this graph must not be reused by other tests.
	in, err := core.LoadInput(core.GraphSpec{Name: "Urand", Scale: 6, Seed: 3, Delta: 16, SourceSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() })
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "CC", Mode: chaos.CorruptGraph, Once: true})
	c := dial(t, sock)

	// The sandboxed seal check catches the mutation as a panic — the client
	// sees INTERNAL naming the corrupted array, never a silent wrong answer.
	resp := c.do(Request{Kernel: "CC", Vertex: 1})
	if resp.Code != CodeInternal || !strings.Contains(resp.Error, "graphguard") {
		t.Fatalf("corrupt-graph query: %+v", resp)
	}
	// The daemon survives; the corrupted graph keeps tripping the seal (the
	// guard refuses to serve poisoned data), which is the correct behavior.
	if r := c.do(Request{Kernel: "BFS", Source: 1}); r.Code != CodeInternal {
		t.Fatalf("BFS on corrupted graph: %+v, want INTERNAL (seal still broken)", r)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// ---- snapshot builds under faults ------------------------------------------

func TestChaosServeSnapshotPanicOnceRetriesAndPublishes(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "PR", Mode: chaos.Panic, Once: true},
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Stall})
	c := dial(t, sock)

	build := c.do(Request{Kernel: "PR"})
	if build.Code != CodeOK || build.Retries != 1 || build.KernelMicros == 0 {
		t.Fatalf("once-panic PR build: %+v, want OK after 1 retry", build)
	}
	// The next PR query takes no lease: the pool's only machine is held by a
	// stalled BFS on another connection, and the answer still comes.
	busy := dial(t, sock)
	busy.send(Request{Kernel: "BFS", Source: 1, BudgetMS: 300})
	waitFor(t, func() bool { return srv.Pool().Outstanding() == 1 })
	hit := c.do(Request{Kernel: "PR"})
	if hit.Code != CodeOK || hit.KernelMicros != 0 || !reflect.DeepEqual(hit.Result, build.Result) {
		t.Fatalf("PR hit behind a busy pool: %+v, build answered %+v", hit, build.Result)
	}
	if r := busy.recv(); r.Code != CodeDeadlineExceeded {
		t.Errorf("stalled BFS: %+v", r)
	}
	if st := srv.StatsSnapshot(); st.SnapshotBuilds != 1 || st.SnapshotFailed != 0 || st.SnapshotHits != 1 {
		t.Errorf("builds=%d failed=%d hits=%d, want 1/0/1", st.SnapshotBuilds, st.SnapshotFailed, st.SnapshotHits)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeSnapshotCorruptRejectedByBuildOracle(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "CC", Mode: chaos.Corrupt, Once: true})
	c := dial(t, sock)

	// The build-time oracle catches the flipped label: the client sees
	// INTERNAL and no result, and nothing is cached.
	bad := c.do(Request{Kernel: "CC", Vertex: 1})
	if bad.Code != CodeInternal || !strings.Contains(bad.Error, "oracle rejected") || bad.Result != nil {
		t.Fatalf("corrupted CC build: %+v", bad)
	}
	if st := srv.StatsSnapshot(); st.SnapshotBuilds != 1 || st.SnapshotFailed != 1 {
		t.Errorf("builds=%d failed=%d after a rejected build, want 1/1", st.SnapshotBuilds, st.SnapshotFailed)
	}
	// The fault is spent: the next query rebuilds and answers what the serial
	// oracle says.
	want := verify.Components(in.Graph)
	size := int64(0)
	for _, l := range want {
		if l == want[1] {
			size++
		}
	}
	good := c.do(Request{Kernel: "CC", Vertex: 1})
	if good.Code != CodeOK || good.Result == nil || good.Result.Size != size {
		t.Fatalf("CC after the rejected build: %+v, want size %d", good, size)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeSnapshotHangAbandonsHealsAndDrainsClean(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1, Grace: 40 * time.Millisecond}, in,
		&chaos.Fault{Kernel: "PR", Mode: chaos.Hang, Once: true, HangExtra: chaosHang})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "PR", BudgetMS: 40})
	if resp.Code != CodeDeadlineExceeded || !strings.Contains(resp.Error, "abandoned") {
		t.Fatalf("hung PR build: %+v", resp)
	}
	if got := srv.Pool().Abandoned(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	// The pool healed and the slot stayed empty: the next PR query rebuilds on
	// the replacement machine while the hung kernel sleeps on.
	if r := c.do(Request{Kernel: "PR"}); r.Code != CodeOK {
		t.Fatalf("PR after the hung build: %+v", r)
	}
	if st := srv.StatsSnapshot(); st.SnapshotBuilds != 2 || st.SnapshotFailed != 1 {
		t.Errorf("builds=%d failed=%d, want 2/1", st.SnapshotBuilds, st.SnapshotFailed)
	}
	// The drain reaps the abandoned machine and proves zero leases leaked
	// (panics under -tags=servecheck, errors otherwise — nil means clean).
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown after hang: %v", err)
	}
	if got := srv.Pool().Outstanding(); got != 0 {
		t.Errorf("outstanding leases after drain = %d", got)
	}
}
