package core_test

// End-to-end fault injection: chaos-wrapped frameworks run through the real
// Runner/RunSuite pipeline and every injected failure must surface as
// exactly the right per-cell status while the suite itself keeps going.

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gapbench/internal/chaos"
	"gapbench/internal/core"
	"gapbench/internal/invariant"
	"gapbench/internal/kernel"
	"gapbench/internal/testutil"
)

// chaosRunner is the shared shape for the e2e tests: short trials, a real
// deadline, no retries unless the test is about retries.
func chaosRunner() *core.Runner {
	return &core.Runner{
		Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true,
		Timeout: 150 * time.Millisecond, Grace: 2 * time.Second,
		Retry: &core.RetryPolicy{},
	}
}

func TestChaosSuiteSurvivesMixedFaults(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := chaosRunner()
	defer r.Close()

	// One injected failure per failure class, all on the same wrapped
	// framework; untargeted kernels must stay OK.
	fw := chaos.Wrap(core.FrameworkByName("GAP"), 7,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Panic},
		&chaos.Fault{Kernel: "PR", Mode: chaos.Stall},
		&chaos.Fault{Kernel: "CC", Mode: chaos.Corrupt},
	)
	results, err := r.RunSuite(
		[]kernel.Framework{fw}, []*core.Input{in}, []kernel.Mode{kernel.Baseline},
		[]core.Kernel{core.BFS, core.PR, core.CC, core.TC}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Kernel]core.Status{
		core.BFS: core.Panicked,
		core.PR:  core.TimedOut,
		core.CC:  core.VerifyFailed,
		core.TC:  core.OK,
	}
	if len(results) != len(want) {
		t.Fatalf("suite returned %d cells, want %d", len(results), len(want))
	}
	for _, res := range results {
		if res.Status != want[res.Kernel] {
			t.Errorf("%s: status = %v, want %v (err: %s)", res.Kernel, res.Status, want[res.Kernel], res.Err)
		}
		if res.Framework != "GAP" {
			t.Errorf("%s: injector leaked into the framework name: %q", res.Kernel, res.Framework)
		}
	}
	for _, res := range results {
		switch res.Kernel {
		case core.BFS:
			if !strings.Contains(res.Err, "chaos: injected panic") {
				t.Errorf("BFS err %q does not identify the injected panic", res.Err)
			}
		case core.PR:
			if !strings.Contains(res.Err, "deadline") {
				t.Errorf("PR err %q does not mention the deadline", res.Err)
			}
		}
	}
	if r.Abandoned() != 0 {
		t.Errorf("cooperative faults abandoned %d machines", r.Abandoned())
	}
}

func TestChaosCorruptionIsDeterministic(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	run := func() core.Result {
		r := chaosRunner()
		defer r.Close()
		fw := chaos.Wrap(core.FrameworkByName("GAP"), 42,
			&chaos.Fault{Kernel: "CC", Mode: chaos.Corrupt})
		return r.RunCell(fw, core.CC, in, kernel.Baseline)
	}
	a, b := run(), run()
	if a.Status != core.VerifyFailed || b.Status != core.VerifyFailed {
		t.Fatalf("corrupt cells: %v / %v, want VerifyFailed", a.Status, b.Status)
	}
	// Same seed, same graph, same corruption site: the oracle must reject
	// both runs with the identical message.
	if a.Err != b.Err {
		t.Errorf("corruption not deterministic under a fixed seed:\n%s\nvs\n%s", a.Err, b.Err)
	}
}

func TestChaosOnceFaultIsRetriedToOK(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := chaosRunner()
	r.Retry = nil // default policy: one retry for Panicked/TimedOut
	defer r.Close()
	fw := chaos.Wrap(core.FrameworkByName("GAP"), 7,
		&chaos.Fault{Kernel: "TC", Mode: chaos.Panic, Once: true})
	res := r.RunCell(fw, core.TC, in, kernel.Baseline)
	if res.Status != core.OK || !res.Verified {
		t.Fatalf("transient chaos fault not recovered: %+v", res)
	}
	if res.Retries != 1 || len(res.TrialRecords) != 2 {
		t.Fatalf("retry accounting: %+v", res)
	}
	if res.TrialRecords[0].Status != core.Panicked || res.TrialRecords[1].Status != core.OK {
		t.Fatalf("TrialRecords = %+v, want [Panicked, OK]", res.TrialRecords)
	}
}

func TestChaosHangAbandonsMachineAndSuiteContinues(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := chaosRunner()
	r.Timeout = 50 * time.Millisecond
	r.Grace = 100 * time.Millisecond
	defer r.Close()
	fw := chaos.Wrap(core.FrameworkByName("GAP"), 7,
		&chaos.Fault{Kernel: "SSSP", Mode: chaos.Hang, HangExtra: 500 * time.Millisecond})
	results, err := r.RunSuite(
		[]kernel.Framework{fw}, []*core.Input{in}, []kernel.Mode{kernel.Baseline},
		[]core.Kernel{core.SSSP, core.TC}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKernel := map[core.Kernel]core.Result{}
	for _, res := range results {
		byKernel[res.Kernel] = res
	}
	if res := byKernel[core.SSSP]; res.Status != core.TimedOut || !strings.Contains(res.Err, "machine abandoned") {
		t.Fatalf("hang cell: %+v", res)
	}
	if res := byKernel[core.TC]; res.Status != core.OK || !res.Verified {
		t.Fatalf("suite did not continue past the hang: %+v", res)
	}
	if r.Abandoned() != 1 {
		t.Fatalf("abandoned = %d, want 1", r.Abandoned())
	}
}

func TestChaosJournalResumeSkipsCompletedCells(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	path := filepath.Join(t.TempDir(), "chaos.jsonl")

	// First run dies on BFS (deterministic panic) after TC completed —
	// kernel order puts TC last, so run TC first via the kernels slice.
	r1 := chaosRunner()
	r1.JournalPath = path
	fw1 := chaos.Wrap(core.FrameworkByName("GAP"), 7,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Panic})
	res1, err := r1.RunSuite([]kernel.Framework{fw1}, []*core.Input{in},
		[]kernel.Mode{kernel.Baseline}, []core.Kernel{core.TC, core.BFS}, nil)
	r1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) != 2 || res1[0].Status != core.OK || res1[1].Status != core.Panicked {
		t.Fatalf("first chaos run: %+v", res1)
	}

	// Second run resumes without the fault: the journaled TC cell (and the
	// journaled Panicked BFS cell) replay; only re-requested kernels beyond
	// the journal execute. A journaled failure is a recorded outcome — the
	// operator clears it from the journal to re-run it, the runner does not
	// second-guess.
	var executed int
	r2 := chaosRunner()
	r2.JournalPath = path
	r2.Resume = true
	fw2 := chaos.Wrap(core.FrameworkByName("GAP"), 7) // no faults this time
	res2, err := r2.RunSuite([]kernel.Framework{fw2}, []*core.Input{in},
		[]kernel.Mode{kernel.Baseline}, []core.Kernel{core.TC, core.BFS, core.PR},
		func(res core.Result) {
			if !res.Resumed {
				executed++
			}
		})
	r2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if executed != 1 {
		t.Fatalf("resume executed %d cells, want 1 (PR only)", executed)
	}
	byKernel := map[core.Kernel]core.Result{}
	for _, res := range res2 {
		byKernel[res.Kernel] = res
	}
	if !byKernel[core.TC].Resumed || !byKernel[core.BFS].Resumed || byKernel[core.PR].Resumed {
		t.Fatalf("resume flags wrong: %+v", res2)
	}
	if byKernel[core.BFS].Status != core.Panicked {
		t.Errorf("journaled failure rewrote its status: %+v", byKernel[core.BFS])
	}
	if byKernel[core.PR].Status != core.OK {
		t.Errorf("fresh PR cell: %+v", byKernel[core.PR])
	}
}

// TestChaosCorruptGraphCaughtByGraphguard closes the loop between the chaos
// fault model and the graphguard sanitizer: a CorruptGraph fault flips CSR
// memory that the oracle cannot notice (it verifies against the same
// corrupted graph), so only the runner's seal check can convict it — as a
// Panicked record naming the array, not a VerifyFailed. Needs an armed
// build: go test -tags=check.
func TestChaosCorruptGraphCaughtByGraphguard(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := chaosRunner()
	defer r.Close()

	fw := chaos.Wrap(core.FrameworkByName("GAP"), 11,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.CorruptGraph})
	res := r.RunCell(fw, core.BFS, in, kernel.Baseline)
	if res.Status == core.VerifyFailed {
		t.Fatalf("CorruptGraph surfaced as VerifyFailed (err %q): the oracle cannot own this fault", res.Err)
	}
	if res.Status != core.Panicked {
		t.Fatalf("CorruptGraph cell: status = %v (err %q), want Panicked", res.Status, res.Err)
	}
	if !strings.Contains(res.Err, "graphguard") || !strings.Contains(res.Err, "outNeigh") {
		t.Errorf("err %q does not name the graphguard seal and the corrupted array", res.Err)
	}
}
