// Package spin is a gapvet test fixture (never built): its data-dependent
// loops spin without ever observing cancellation (cancel-liveness), next to
// controls that stay live through a direct poll and through a par schedule.
package spin

import (
	"sync"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// next pops one vertex; a plain helper with no poll anywhere beneath it.
func next(work []graph.NodeID) []graph.NodeID {
	return work[1:]
}

// Drain spins on a worklist whose trip count the input controls, and nothing
// in the loop can ever observe the trial's cancellation token.
func Drain(work []graph.NodeID) {
	for len(work) > 0 {
		work = next(work)
	}
}

// Expand is a frontier fixed point with the same defect: the loop's call set
// reaches only graph accessors and the plain helper.
func Expand(g *graph.Graph, work []graph.NodeID) {
	for len(work) > 0 {
		u := work[0]
		work = next(work)
		work = append(work, g.OutNeighbors(u)...)
	}
}

// DrainPolite is the polled control: the direct Interrupted() poll keeps the
// loop live.
func DrainPolite(work []graph.NodeID, opt kernel.Options) {
	for len(work) > 0 {
		if opt.Exec().Interrupted() {
			return
		}
		work = next(work)
	}
}

// forAll is a tiny fork-join schedule of spin's own: the facts engine learns
// it spawns goroutines, the stand-in for a par.Machine region (which polls
// the installed token) inside this self-contained fixture tree.
func forAll(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// DrainParallel is the schedule control: each round drives a spawning
// schedule, which owns cancellation for the region, so the loop is live.
func DrainParallel(work []graph.NodeID) {
	for len(work) > 0 {
		forAll(len(work), func(i int) {
			_ = work[i]
		})
		work = next(work)
	}
}
