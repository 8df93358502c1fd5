// Package graphit reproduces the GraphIt DSL the paper evaluates. GraphIt
// separates what an algorithm computes from how it is executed; here the
// "what" is written against the shared frontier library (internal/frontier)
// and the "how" is a schedule value —
// direction choice, frontier layout, cache tiling, short-circuiting —
// selected per kernel by a heuristic autotuner in Baseline mode and by one
// per-graph specialization table in Optimized mode, exactly the split §III-D
// describes and §V exploits ("it used schedules/optimizations specialized for
// the size and structure of the graphs for the Optimized case. This was not
// allowed for the Baseline"). SSSP has no schedule: GraphIt's delta-stepping
// is always bucket-fused (Table III).
package graphit

import (
	"gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// direction is an edge-traversal direction choice.
type direction int

// Traversal directions the scheduling language exposes.
const (
	// dirOpt switches between push and pull per round using the Beamer
	// degree-sum dispatcher (frontier.Dispatcher).
	dirOpt direction = iota
	// pushOnly always traverses from the frontier outward (no per-round
	// accounting — the Optimized-mode Road BFS trick from §V-A, and Web
	// by measurement).
	pushOnly
)

// schedule is one point in the optimization space, a comparable value.
// Frontier is frontier.SparseList (an index list) or frontier.Bitmap —
// GraphIt's bitvector, "advantageous when there are many active elements"
// (§V-E).
type schedule struct {
	Direction    direction       // BFS
	Frontier     frontier.Layout // BFS, BC
	CacheTiling  bool            // PR: segment in-edges into cache-sized tiles
	ShortCircuit bool            // CC label propagation: pointer-jump chains
	NumSegments  int             // PR: tile count when CacheTiling is set
}

// segmentsFor sizes cache tiles for an n-vertex graph so each segment's
// source-vertex range fits roughly in a per-core cache slice.
func segmentsFor(n int64) int {
	const targetVerticesPerSegment = 1 << 15
	segs := int((n + targetVerticesPerSegment - 1) / targetVerticesPerSegment)
	if segs < 1 {
		segs = 1
	}
	return segs
}

// autotune returns the Baseline-mode schedule for a kernel: run-time
// heuristics only, no knowledge of which benchmark graph this is (the paper
// allowed "existing internal auto-tuners and heuristics").
func autotune(kernelName string, g *graph.Graph) schedule {
	n := int64(g.NumNodes())
	switch kernelName {
	case "bfs":
		return schedule{Direction: dirOpt, Frontier: frontier.SparseList}
	case "pr":
		// Tile when the graph is large enough that the rank vector falls
		// out of cache.
		return schedule{CacheTiling: n > 1<<15, NumSegments: segmentsFor(n)}
	case "bc":
		return schedule{Direction: dirOpt, Frontier: frontier.Bitmap}
	default: // cc: plain label propagation
		return schedule{}
	}
}

// specialize returns the Optimized-mode schedule: per-graph tables, the way
// each GraphIt benchmark shipped a tuned schedule per input.
func specialize(kernelName string, g *graph.Graph, opt kernel.Options) schedule {
	s := autotune(kernelName, g)
	switch kernelName {
	case "bfs":
		switch opt.GraphName {
		case "Road":
			// §V-A: "it does not use direction optimization (always push).
			// This eliminates the runtime overhead of checking the number
			// of active vertices."
			s.Direction = pushOnly
		case "Web":
			// Measured (EXPERIMENTS.md, "GraphIt's schedule table"): at
			// Web-14 Beamer's test turns to pull about four times per
			// search and the pull phases lose; push-only was faster in 19
			// of 20 alternating pairs (best-of-15 median 2.70 vs 3.38 ms,
			// 2-core host).
			s.Direction = pushOnly
		}
	case "cc":
		if opt.GraphName == "Road" {
			// §V-C: "label propagation with a short-circuiting approach on
			// Road as the vertex chains tended to go longer on
			// high-diameter graphs", ~3x but still far behind Afforest.
			s.ShortCircuit = true
		}
	case "pr":
		// §V-D: cache optimization from tiling pays on everything except
		// Web, which "had good locality and did not benefit as much".
		// Road runs untiled too, by measurement (EXPERIMENTS.md, "GraphIt's
		// schedule table"): at Road-16 (n = 65 536) the contribution vector
		// is 512 KB and fits the 2 MiB L2, so tiling buys no locality, and
		// its timed serial buildSegments plus three extra regions per sweep
		// made the cell 1.56x slower (12 of 12 alternating pairs, 2-core
		// host).
		s.CacheTiling = opt.GraphName != "Web" && opt.GraphName != "Road"
	case "bc":
		if opt.GraphName == "Road" {
			// §V-E: "reduces overhead by not using a bitvector for the
			// frontier on Road".
			s.Frontier = frontier.SparseList
		}
	}
	return s
}

// scheduleFor picks the schedule under the active rule set: the per-graph
// specialization table in Optimized mode when the input is named, run-time
// heuristics otherwise. Baseline runs never read the graph's name.
func scheduleFor(kernelName string, g *graph.Graph, opt kernel.Options) schedule {
	if opt.Mode == kernel.Optimized && opt.GraphName != "" {
		return specialize(kernelName, g, opt)
	}
	return autotune(kernelName, g)
}
