package graphit_test

import (
	"testing"

	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/graphit"
	"gapbench/internal/kernel"
	"gapbench/internal/testutil"
)

func TestConformance(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	testutil.RunConformance(t, graphit.New())
}

func TestDescribe(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	testutil.Describe(t, graphit.New())
}

func TestAcrossWorkerCounts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Web(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RunKernelAcrossWorkers(t, graphit.New(), g)
}

// TestOptimizedCellsVerifyEndToEnd runs every Optimized GraphIt cell through
// the runner on the five suite generators, so that the input's name drives
// the per-graph schedule table and the runner's oracle checks each answer.
func TestOptimizedCellsVerifyEndToEnd(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var inputs []*core.Input
	for _, spec := range core.DefaultSuite(8) {
		in, err := core.LoadInput(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	fws := []kernel.Framework{graphit.New()}
	core.PrepareViews(fws, inputs)
	r := &core.Runner{Trials: 1, BaselineWorkers: 2, OptimizedWorkers: 2, Verify: true}
	defer r.Close()
	results, err := r.RunSuite(fws, inputs, []kernel.Mode{kernel.Optimized}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(inputs) * len(core.Kernels); len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	for _, res := range results {
		if res.Status != core.OK || !res.Verified {
			t.Errorf("%s %s on %s: status %s, verified %t: %s",
				res.Mode, res.Kernel, res.Graph, res.Status, res.Verified, res.Err)
		}
	}
}
