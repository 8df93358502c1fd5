package lagraph_test

import (
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/lagraph"
	"gapbench/internal/testutil"
)

func TestConformance(t *testing.T) {
	testutil.RunConformance(t, lagraph.New())
}

func TestDescribe(t *testing.T) {
	testutil.Describe(t, lagraph.New())
}

func TestAcrossWorkerCounts(t *testing.T) {
	g, err := generate.Kron(9, 7)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RunKernelAcrossWorkers(t, lagraph.New(), g)
}
