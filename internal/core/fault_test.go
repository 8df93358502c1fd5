package core_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/kernel"
	"gapbench/internal/testutil"
)

// zeroFramework returns zero-valued outputs for everything: a neutral base
// for the fault-injecting stubs below.
type zeroFramework struct{ name string }

func (f zeroFramework) Name() string { return f.name }
func (zeroFramework) BFS(g *gGraph, src gNode, opt kernel.Options) []gNode {
	return make([]gNode, g.NumNodes())
}
func (zeroFramework) SSSP(g *gGraph, src gNode, opt kernel.Options) []kernel.Dist {
	return make([]kernel.Dist, g.NumNodes())
}
func (zeroFramework) PR(g *gGraph, opt kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (zeroFramework) CC(g *gGraph, opt kernel.Options) []gNode {
	return make([]gNode, g.NumNodes())
}
func (zeroFramework) BC(g *gGraph, sources []gNode, opt kernel.Options) []float64 {
	return make([]float64, g.NumNodes())
}
func (zeroFramework) TC(g *gGraph, opt kernel.Options) int64 { return 0 }

// panicky always panics in TC.
type panicky struct{ zeroFramework }

func (panicky) TC(g *gGraph, opt kernel.Options) int64 { panic("kernel exploded") }

// flaky panics on the first TC call, then delegates to the real reference
// framework — the transient failure the default retry policy exists for.
type flaky struct {
	kernel.Framework
	calls *atomic.Int32
}

func (f flaky) TC(g *gGraph, opt kernel.Options) int64 {
	if f.calls.Add(1) == 1 {
		panic("transient wobble")
	}
	return f.Framework.TC(g, opt)
}

// staller blocks in TC until the trial's cancellation token fires, then
// returns promptly — the cooperative-timeout path.
type staller struct{ zeroFramework }

func (staller) TC(g *gGraph, opt kernel.Options) int64 {
	for !opt.Exec().Interrupted() {
		time.Sleep(100 * time.Microsecond)
	}
	return 0
}

// hanger ignores cancellation entirely for hangFor — the machine-abandonment
// path. It does eventually return so tests can reap the abandoned pool.
const hangFor = 700 * time.Millisecond

type hanger struct{ zeroFramework }

func (hanger) TC(g *gGraph, opt kernel.Options) int64 {
	time.Sleep(hangFor)
	return 0
}

// badPreparer panics during the untimed load-time conversion.
type badPreparer struct{ zeroFramework }

func (badPreparer) Prepare(g, undirected *gGraph) any { panic("bad view build") }

func loadSmallInput(t *testing.T) *core.Input {
	t.Helper()
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunCellSandboxesPanics(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 2, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
	defer r.Close()
	res := r.RunCell(panicky{zeroFramework{"Panicky"}}, core.TC, in, kernel.Baseline)
	if res.Status != core.Panicked {
		t.Fatalf("status = %v, want Panicked", res.Status)
	}
	if res.Verified || res.Seconds != -1 {
		t.Errorf("panicked cell kept a result: verified=%v seconds=%v", res.Verified, res.Seconds)
	}
	if !strings.Contains(res.Err, "kernel exploded") {
		t.Errorf("Err %q does not carry the panic value", res.Err)
	}
	// Default policy: trial 0 attempted twice (both Panicked, with stacks),
	// trial 1 skipped because the cell's fate is sealed.
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1", res.Retries)
	}
	if len(res.TrialRecords) != 3 {
		t.Fatalf("TrialRecords = %+v, want 3 entries", res.TrialRecords)
	}
	for i, want := range []core.Status{core.Panicked, core.Panicked, core.Skipped} {
		if res.TrialRecords[i].Status != want {
			t.Errorf("record %d status = %v, want %v", i, res.TrialRecords[i].Status, want)
		}
	}
	if res.TrialRecords[0].Stack == "" || !strings.Contains(res.TrialRecords[0].Stack, "TC") {
		t.Errorf("record 0 stack missing or unhelpful: %q", res.TrialRecords[0].Stack)
	}
	if res.TrialRecords[1].Attempt != 1 || res.TrialRecords[2].Trial != 1 {
		t.Errorf("attempt/trial indices wrong: %+v", res.TrialRecords)
	}

	// The harness survived: the same runner immediately runs a clean cell.
	ok := r.RunCell(core.FrameworkByName("GAP"), core.TC, in, kernel.Baseline)
	if ok.Status != core.OK || !ok.Verified {
		t.Fatalf("clean cell after panic: %+v", ok)
	}
}

func TestRetryRecoversTransientPanic(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
	defer r.Close()
	f := flaky{Framework: core.FrameworkByName("GAP"), calls: new(atomic.Int32)}
	res := r.RunCell(f, core.TC, in, kernel.Baseline)
	if res.Status != core.OK || !res.Verified {
		t.Fatalf("flaky cell did not recover: %+v", res)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1", res.Retries)
	}
	if len(res.TrialRecords) != 2 ||
		res.TrialRecords[0].Status != core.Panicked ||
		res.TrialRecords[1].Status != core.OK {
		t.Errorf("TrialRecords = %+v, want [Panicked, OK]", res.TrialRecords)
	}
	if res.Seconds <= 0 {
		t.Errorf("recovered cell lost its timing: %v", res.Seconds)
	}
}

func TestNoRetryPolicySingleAttempt(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{
		Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1, Verify: true,
		Retry: &core.RetryPolicy{}, // no retries at all
	}
	defer r.Close()
	res := r.RunCell(panicky{zeroFramework{"Panicky"}}, core.TC, in, kernel.Baseline)
	if res.Status != core.Panicked || res.Retries != 0 || len(res.TrialRecords) != 1 {
		t.Fatalf("no-retry policy violated: %+v", res)
	}
}

// TestRetryPolicyRule: Panicked and TimedOut are retried while attempts
// remain (a nil policy allows one), and no other status ever is.
func TestRetryPolicyRule(t *testing.T) {
	var once *core.RetryPolicy
	for _, s := range []core.Status{core.Panicked, core.TimedOut} {
		if !once.Retries(s, 0) || once.Retries(s, 1) {
			t.Errorf("nil policy on %v: want exactly one retry", s)
		}
		if (&core.RetryPolicy{}).Retries(s, 0) {
			t.Errorf("zero policy retried %v", s)
		}
	}
	for _, s := range []core.Status{core.OK, core.VerifyFailed, core.Skipped} {
		if (&core.RetryPolicy{MaxRetries: 5}).Retries(s, 0) {
			t.Errorf("policy retried %v", s)
		}
	}
}

func TestVerifyFailureIsNotRetried(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1, Verify: true}
	defer r.Close()
	res := r.RunCell(brokenFramework{}, core.TC, in, kernel.Baseline)
	if res.Status != core.VerifyFailed {
		t.Fatalf("status = %v, want VerifyFailed", res.Status)
	}
	if res.Retries != 0 || len(res.TrialRecords) != 1 {
		t.Errorf("wrong answer was retried: %+v", res)
	}
}

func TestCooperativeTimeoutKeepsMachine(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{
		Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true,
		Timeout: 100 * time.Millisecond, Grace: 2 * time.Second,
		Retry: &core.RetryPolicy{},
	}
	defer r.Close()
	res := r.RunCell(staller{zeroFramework{"Staller"}}, core.TC, in, kernel.Baseline)
	if res.Status != core.TimedOut {
		t.Fatalf("status = %v, want TimedOut (%s)", res.Status, res.Err)
	}
	if !strings.Contains(res.Err, "deadline") {
		t.Errorf("Err %q does not mention the deadline", res.Err)
	}
	if r.Abandoned() != 0 {
		t.Fatalf("cooperative kernel cost a machine: abandoned = %d", r.Abandoned())
	}
	// Same runner, same machine, clean cell.
	ok := r.RunCell(core.FrameworkByName("GAP"), core.TC, in, kernel.Baseline)
	if ok.Status != core.OK || !ok.Verified {
		t.Fatalf("clean cell after cooperative timeout: %+v", ok)
	}
}

func TestStuckKernelAbandonsMachine(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{
		Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true,
		Timeout: 50 * time.Millisecond, Grace: 100 * time.Millisecond,
		Retry: &core.RetryPolicy{},
	}
	defer r.Close()
	start := time.Now()
	res := r.RunCell(hanger{zeroFramework{"Hanger"}}, core.TC, in, kernel.Baseline)
	if elapsed := time.Since(start); elapsed >= hangFor {
		t.Fatalf("runner blocked on the stuck kernel for %v", elapsed)
	}
	if res.Status != core.TimedOut || !strings.Contains(res.Err, "machine abandoned") {
		t.Fatalf("status = %v err = %q, want abandoned TimedOut", res.Status, res.Err)
	}
	if r.Abandoned() != 1 {
		t.Fatalf("abandoned = %d, want 1", r.Abandoned())
	}
	if res.Sync.Workers != 2 {
		t.Errorf("abandoned cell's width = %d, want the configured 2", res.Sync.Workers)
	}
	// The next cell transparently gets a fresh machine.
	ok := r.RunCell(core.FrameworkByName("GAP"), core.TC, in, kernel.Baseline)
	if ok.Status != core.OK || !ok.Verified {
		t.Fatalf("clean cell after abandonment: %+v", ok)
	}
	// The hanger eventually returns and the pool's reaper joins the poisoned
	// machine, so the goroutine leak check above holds.
}

// TestRepeatedAbandonmentSelfHeals drives the runner through several
// consecutive machine abandonments — the serving layer's worst day — and
// checks the self-healing invariants: every replacement machine inherits the
// mode's worker count, its cancel token still works (a staller times out
// cooperatively, costing no machine), and the pool's reapers join every
// poisoned machine so nothing leaks.
func TestRepeatedAbandonmentSelfHeals(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{
		Trials: 1, BaselineWorkers: 3, OptimizedWorkers: 2, Verify: true,
		Timeout: 50 * time.Millisecond, Grace: 100 * time.Millisecond,
		Retry: &core.RetryPolicy{},
	}
	defer r.Close()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		res := r.RunCell(hanger{zeroFramework{"Hanger"}}, core.TC, in, kernel.Baseline)
		if res.Status != core.TimedOut || !strings.Contains(res.Err, "machine abandoned") {
			t.Fatalf("round %d: status = %v err = %q, want abandoned TimedOut", i, res.Status, res.Err)
		}
	}
	if got := r.Abandoned(); got != rounds {
		t.Fatalf("abandoned = %d, want %d", got, rounds)
	}

	// The replacement built after the last abandonment must inherit the
	// baseline worker count, not fall back to some default width.
	ok := r.RunCell(core.FrameworkByName("GAP"), core.TC, in, kernel.Baseline)
	if ok.Status != core.OK || !ok.Verified {
		t.Fatalf("clean cell after %d abandonments: %+v", rounds, ok)
	}
	if ok.Sync.Workers != 3 {
		t.Errorf("replacement machine width = %d, want the configured 3", ok.Sync.Workers)
	}

	// Cancellation must be live on the replacement too: a cooperative staller
	// times out via the token without costing another machine.
	res := r.RunCell(staller{zeroFramework{"Staller"}}, core.TC, in, kernel.Baseline)
	if res.Status != core.TimedOut || strings.Contains(res.Err, "machine abandoned") {
		t.Fatalf("staller on replacement: status = %v err = %q, want cooperative TimedOut", res.Status, res.Err)
	}
	if got := r.Abandoned(); got != rounds {
		t.Fatalf("cooperative timeout cost a machine: abandoned = %d, want %d", got, rounds)
	}
}

func TestUnknownKernelSkipped(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 1, BaselineWorkers: 1, OptimizedWorkers: 1}
	defer r.Close()
	res := r.RunCell(core.FrameworkByName("GAP"), core.Kernel("nope"), in, kernel.Baseline)
	if res.Status != core.Skipped || res.Verified {
		t.Fatalf("unknown kernel: %+v", res)
	}
}

func TestPreparePanicFailsCellNotSuite(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 2, BaselineWorkers: 1, OptimizedWorkers: 1}
	defer r.Close()
	res := r.RunCell(badPreparer{zeroFramework{"BadPrep"}}, core.TC, in, kernel.Baseline)
	if res.Status != core.Panicked || !strings.Contains(res.Err, "bad view build") {
		t.Fatalf("prepare panic not captured: %+v", res)
	}
	if len(res.TrialRecords) != 2 {
		t.Fatalf("TrialRecords = %+v, want 2 skipped trials", res.TrialRecords)
	}
	for _, rec := range res.TrialRecords {
		if rec.Status != core.Skipped {
			t.Errorf("record %+v, want Skipped", rec)
		}
	}
}

func TestStatusTextRoundTrip(t *testing.T) {
	for _, s := range []core.Status{core.OK, core.VerifyFailed, core.Panicked, core.TimedOut, core.Skipped} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var back core.Status
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %s -> %v", s, b, back)
		}
	}
	var bad core.Status
	if err := bad.UnmarshalText([]byte("Gremlins")); err == nil {
		t.Error("unknown status text accepted")
	}
}
