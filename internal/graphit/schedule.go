// Package graphit reproduces the GraphIt DSL the paper evaluates. GraphIt
// separates what an algorithm computes from how it is executed; here the
// "what" is written against the shared frontier library (internal/frontier)
// and the "how" is a Schedule value —
// direction choice, frontier layout, bucket fusion, cache tiling — selected
// per kernel by a heuristic autotuner in Baseline mode and by per-graph
// specialization tables (or a persisted `gapbench -tune` result) in
// Optimized mode, exactly the split §III-D describes and §V exploits ("it
// used schedules/optimizations specialized for the size and structure of the
// graphs for the Optimized case. This was not allowed for the Baseline").
package graphit

import (
	"gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/tune"
)

// Direction is an edge-traversal direction choice (shared with the tuner).
type Direction = tune.Direction

// Traversal directions the scheduling language exposes.
const (
	// DirOpt switches between push and pull per round via the Beamer
	// degree-sum dispatcher.
	DirOpt = tune.DirOpt
	// PushOnly always traverses from the frontier outward (no per-round
	// accounting — the Optimized-mode Road BFS trick from §V-A).
	PushOnly = tune.PushOnly
	// PullOnly always traverses into unvisited vertices.
	PullOnly = tune.PullOnly
)

// FrontierLayout selects the vertexset representation.
type FrontierLayout = frontier.Layout

// Frontier layouts.
const (
	// SparseList stores frontier vertices as an index list.
	SparseList = frontier.SparseList
	// Bitvector stores the frontier as a bitmap — "advantageous when there
	// are many active elements" (§V-E).
	Bitvector = frontier.Bitmap
)

// Schedule is one point in GraphIt's optimization space (the shared tuner's
// schedule type, so tuned entries round-trip through the store unchanged).
type Schedule = tune.Schedule

// autotune returns the Baseline-mode schedule for a kernel: run-time
// heuristics only, no knowledge of which benchmark graph this is (the paper
// allowed "existing internal auto-tuners and heuristics").
func autotune(kernelName string, g *graph.Graph) Schedule {
	switch kernelName {
	case "bfs":
		return Schedule{Direction: DirOpt, Frontier: SparseList}
	case "sssp":
		return Schedule{Direction: PushOnly, Frontier: SparseList, BucketFusion: true}
	case "pr":
		// Tile when the graph is large enough that the rank vector falls
		// out of cache.
		return Schedule{CacheTiling: g.NumNodes() > 1<<15, NumSegments: segmentsFor(g)}
	case "cc":
		return Schedule{Direction: DirOpt, Frontier: SparseList, CacheTiling: g.NumNodes() > 1<<15, NumSegments: segmentsFor(g)}
	case "bc":
		return Schedule{Direction: DirOpt, Frontier: Bitvector}
	default: // tc
		return Schedule{}
	}
}

// specialize returns the Optimized-mode schedule: per-graph tables, the way
// each GraphIt benchmark shipped a tuned schedule per input.
func specialize(kernelName string, g *graph.Graph, opt kernel.Options) Schedule {
	s := autotune(kernelName, g)
	switch kernelName {
	case "bfs":
		if opt.GraphName == "Road" {
			// §V-A: "it does not use direction optimization (always push).
			// This eliminates the runtime overhead of checking the number
			// of active vertices."
			s.Direction = PushOnly
		}
	case "cc":
		if opt.GraphName == "Road" {
			// §V-C: "label propagation with a short-circuiting approach on
			// Road as the vertex chains tended to go longer on
			// high-diameter graphs", ~3x but still far behind Afforest.
			s.ShortCircuit = true
		}
		s.CacheTiling = opt.GraphName == "Twitter" || opt.GraphName == "Kron" || opt.GraphName == "Urand"
	case "pr":
		// §V-D: cache optimization from tiling pays on everything except
		// Web, which "had good locality and did not benefit as much".
		s.CacheTiling = opt.GraphName != "Web"
	case "bc":
		if opt.GraphName == "Road" {
			// §V-E: "reduces overhead by not using a bitvector for the
			// frontier on Road".
			s.Frontier = SparseList
		}
	}
	return s
}

// scheduleFor picks the schedule under the active rule set. Optimized runs
// consult the persistent tuned-schedule store first (written by `gapbench
// -tune`, keyed by the graph's build epoch — a cached field, so the lookup
// costs one map probe on the timed path), then fall back to the per-graph
// specialization tables; Baseline runs use run-time heuristics only.
func scheduleFor(kernelName string, g *graph.Graph, opt kernel.Options) Schedule {
	if opt.Mode == kernel.Optimized {
		if opt.Schedules != nil {
			if s, ok := opt.Schedules.Lookup(kernelName, g.Epoch(), opt.Mode.String()); ok {
				return s
			}
		}
		if opt.GraphName != "" {
			return specialize(kernelName, g, opt)
		}
	}
	return autotune(kernelName, g)
}

// segmentsFor sizes PR's cache tiles so each segment's source-vertex range
// fits roughly in a per-core cache slice.
func segmentsFor(g *graph.Graph) int {
	return tune.SegmentsFor(int64(g.NumNodes()))
}
