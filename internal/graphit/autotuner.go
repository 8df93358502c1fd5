package graphit

import (
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// TuneResult records one explored candidate.
type TuneResult struct {
	Schedule Schedule
	Seconds  float64
}

// explore times run(candidate) `trials` times per candidate (min-of-trials,
// the GAP measurement convention) and returns the fastest schedule with the
// full exploration trace. This is the miniature counterpart of GraphIt's
// OpenTuner-based autotuner (§III-D: "explores the optimization space and
// finds high-performance schedules quickly"); the spaces here are small
// enough to sweep exhaustively.
func explore(candidates []Schedule, trials int, run func(Schedule)) (Schedule, []TuneResult) {
	if trials < 1 {
		trials = 1
	}
	results := make([]TuneResult, 0, len(candidates))
	best := candidates[0]
	bestSec := -1.0
	for _, cand := range candidates {
		sec := -1.0
		for t := 0; t < trials; t++ {
			start := time.Now()
			run(cand)
			if s := time.Since(start).Seconds(); sec < 0 || s < sec {
				sec = s
			}
		}
		results = append(results, TuneResult{Schedule: cand, Seconds: sec})
		if bestSec < 0 || sec < bestSec {
			best, bestSec = cand, sec
		}
	}
	return best, results
}

// BestSeconds returns the recorded time of sched in a trace (or -1 when the
// trace does not contain it) — the store's Seconds field for a Put after an
// Autotune.
func BestSeconds(trace []TuneResult, sched Schedule) float64 {
	for _, r := range trace {
		if r.Schedule == sched {
			return r.Seconds
		}
	}
	return -1
}

// Autotune explores the schedule space for a kernel on a concrete graph and
// returns the fastest schedule found, with the full exploration trace. Tuning
// time is NOT part of any benchmark timing — the paper's Optimized rule set
// explicitly excludes it ("They were not required to include the time for
// such tuning efforts").
func Autotune(g *graph.Graph, kernelName string, src graph.NodeID, trials, workers int) (Schedule, []TuneResult) {
	exec := par.Default() // tuning is untimed; the default machine is fine
	delta := kernel.Dist(16)
	return explore(scheduleSpace(kernelName, int64(g.NumNodes())), trials, func(cand Schedule) {
		switch kernelName {
		case "bfs":
			_ = bfs(exec, g, src, cand, workers)
		case "sssp":
			_ = sssp(exec, g, src, delta, cand, workers)
		case "pr":
			_ = pr(exec, g, cand, workers)
		case "cc":
			_ = cc(exec, g, cand, workers)
		default: // bc
			_ = bc(exec, g, []graph.NodeID{src}, cand, workers)
		}
	})
}
