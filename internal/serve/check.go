package serve

// check.go is the servecheck runtime sanitizer, the serving layer's share of
// the tree's invariant assertions: always compiled, armed by the one gate,
// invariant.Armed (build with -tags=check). Armed, it panics when a snapshot
// (snapshot.go) or a reach index (reach.go) is about to answer for a graph
// epoch other than the one it was computed on, and when a sampled answer read
// off the reach index disagrees with the oracle: a reach count with a
// traversal, a CC answer with verify.Components. The lease-leak check at
// drain lives with the pool (par.Pool).

import (
	"fmt"

	"gapbench/internal/graph"
	"gapbench/internal/invariant"
	"gapbench/internal/verify"
)

// epochCheck asserts a snapshot or a reach index (what) is served only for
// the graph epoch it was built on, panicking in an armed build. Served graphs
// are immutable today, so the two can differ only through a bug — or through
// the streaming updates this assertion is the gate for.
func epochCheck(what string, builtEpoch, graphEpoch uint64) {
	if invariant.Armed() && builtEpoch != graphEpoch {
		panic(fmt.Sprintf("servecheck: %s built at graph epoch %#x served at epoch %#x — no answer may outlive its epoch", what, builtEpoch, graphEpoch))
	}
}

// reachCheckEvery is the sampling period, in query ids, of reachAnswerCheck
// and componentAnswerCheck.
const reachCheckEvery = 64

// reachAnswerCheck asserts that a reach answer read off the reach index is
// what a traversal from src reaches, panicking in an armed build. One answer
// in reachCheckEvery, chosen by query id so a run is reproducible, is
// recomputed with verify.BFSDepths. A mismatch means the index's components
// or counts are wrong.
func reachAnswerCheck(id uint64, g *graph.Graph, src graph.NodeID, reached int64) {
	if !invariant.Armed() || id%reachCheckEvery != 0 {
		return
	}
	if want := bfsReached(g, src); reached != want {
		panic(fmt.Sprintf("servecheck: reachAnswerCheck: query %d from vertex %d answered reached=%d off the reach index, a BFS reaches %d", id, src, reached, want))
	}
}

// componentAnswerCheck asserts that a CC answer read off the reach index is
// the vertex's canonical weak component, panicking in an armed build. One
// answer in reachCheckEvery, chosen by query id, is recomputed with
// verify.Components. A mismatch means the index's labels or sizes are wrong.
func componentAnswerCheck(id uint64, g *graph.Graph, v, label graph.NodeID, size int64) {
	if !invariant.Armed() || id%reachCheckEvery != 0 {
		return
	}
	labels := verify.Components(g)
	want := int64(0)
	for _, l := range labels {
		if l == labels[v] {
			want++
		}
	}
	if label != labels[v] || size != want {
		panic(fmt.Sprintf("servecheck: componentAnswerCheck: query %d for vertex %d answered component=%d size=%d off the reach index, verify.Components says %d of size %d", id, v, label, size, labels[v], want))
	}
}

// bfsReached is the number of vertices the serial oracle's BFS from src
// reaches, src included.
func bfsReached(g *graph.Graph, src graph.NodeID) int64 {
	n := int64(0)
	for _, d := range verify.BFSDepths(g, src) {
		if d >= 0 {
			n++
		}
	}
	return n
}
