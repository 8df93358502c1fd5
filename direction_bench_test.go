// BenchmarkDirection times the LAGraph BFS under each direction policy so
// EXPERIMENTS.md can tabulate the push-vs-pull crossover per graph and a
// reader can check that the auto dispatcher stays within a few percent of the
// better pinned direction:
//
//	go test -run '^$' -bench BenchmarkDirection -benchtime=1x -count=4 .
package gapbench_test

import (
	"testing"

	"gapbench/internal/grb"
	"gapbench/internal/kernel"
	"gapbench/internal/lagraph"
	"gapbench/internal/par"
)

// BenchmarkDirection: one cell per (graph, policy). Baseline rules keep the
// cells comparable with BenchmarkSuite's Baseline/BFS row while isolating the
// direction decision from the Optimized rule set's other levers.
func BenchmarkDirection(b *testing.B) {
	fw := lagraph.New()
	inputs := loadInputs()
	m := par.NewMachine(benchWidth)
	defer m.Close()
	policies := []struct {
		name   string
		policy grb.DirPolicy
	}{
		{"Push", grb.DirPush},
		{"Pull", grb.DirPull},
		{"Auto", grb.DirAuto},
	}
	for _, in := range inputs {
		opt := benchOptions(in, kernel.Baseline, m)
		opt.Prepared = in.Prepared(fw, false) // untimed, outside b.Run
		for _, pol := range policies {
			b.Run(in.Spec.Name+"/"+pol.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					src := in.Sources[i%len(in.Sources)]
					if pi := fw.BFSWithPolicy(in.Graph, src, opt, pol.policy); pi == nil {
						b.Fatal("BFS returned no parent vector")
					}
				}
			})
		}
	}
}
