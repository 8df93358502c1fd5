package core_test

// End-to-end graphguard: a kernel that mutates the shared CSR mid-trial must
// surface as a Panicked cell naming the corrupted array — caught by the
// runner's seal check at the trial boundary, not by the oracle (which would
// happily verify against the same corrupted graph). Armed by
// `go test -tags=check`; without the tag the tests skip.

import (
	"strings"
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/invariant"
	"gapbench/internal/kernel"
	"gapbench/internal/testutil"
)

func requireGraphguard(t *testing.T) {
	t.Helper()
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
}

// graphMutator is the rogue kernel: its BFS bumps one adjacency entry in
// place before returning. (Test files are outside gapvet's facts engine, so
// the deliberate store needs no ignore directive.)
type graphMutator struct{ zeroFramework }

func (graphMutator) BFS(g *gGraph, src gNode, opt kernel.Options) []gNode {
	_, neigh := g.RawOut()
	neigh[0] = (neigh[0] + 1) % g.NumNodes()
	return make([]gNode, g.NumNodes())
}

func TestGraphguardCatchesKernelMutation(t *testing.T) {
	requireGraphguard(t)
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2,
		Verify: true, Retry: &core.RetryPolicy{}}
	defer r.Close()

	res := r.RunCell(graphMutator{zeroFramework{name: "mutant"}}, core.BFS, in, kernel.Baseline)
	if res.Status != core.Panicked {
		t.Fatalf("mutating kernel: status = %v (err %q), want Panicked", res.Status, res.Err)
	}
	if !strings.Contains(res.Err, "graphguard") || !strings.Contains(res.Err, "outNeigh") {
		t.Errorf("err %q does not name the graphguard seal and the corrupted array", res.Err)
	}
}

// TestGraphguardCleanKernelPasses pins the other side: a well-behaved kernel
// sails through the seal check, so the sanitizer adds no false positives.
func TestGraphguardCleanKernelPasses(t *testing.T) {
	requireGraphguard(t)
	defer testutil.CheckGoroutines(t)()
	in := loadSmallInput(t)
	r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2,
		Verify: true, Retry: &core.RetryPolicy{}}
	defer r.Close()

	res := r.RunCell(core.FrameworkByName("GAP"), core.BFS, in, kernel.Baseline)
	if res.Status != core.OK {
		t.Fatalf("clean kernel under graphguard: status = %v (err %q), want OK", res.Status, res.Err)
	}
}
