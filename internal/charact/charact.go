// Package charact is the workload-characterization companion to the
// benchmark, in the spirit of the IISWC'15 study the GAP suite was designed
// around (§II: "The benchmark was designed in conjunction with a workload
// characterization to ensure it exposes a range of computational demands").
// It runs instrumented versions of the traversal kernels and reports the
// quantities that explain Table V: rounds executed, edges examined per
// round, frontier-size profiles, and direction-switch behaviour — the
// numbers behind "graph topology can have a bigger impact on the workload
// characteristics than the algorithm".
package charact

import (
	"fmt"
	"strings"

	ft "gapbench/internal/frontier"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
)

// Profile is one instrumented kernel execution.
type Profile struct {
	Kernel string
	Graph  string
	// Rounds is the number of synchronized rounds (BFS levels, SSSP bucket
	// passes, PR iterations).
	Rounds int
	// EdgesExamined counts adjacency entries touched.
	EdgesExamined int64
	// FrontierSizes records the active-vertex count per round.
	FrontierSizes []int64
	// PushRounds and PullRounds break BFS rounds down by direction.
	PushRounds, PullRounds int
}

// MaxFrontier returns the largest per-round frontier.
func (p Profile) MaxFrontier() int64 {
	var m int64
	for _, f := range p.FrontierSizes {
		if f > m {
			m = f
		}
	}
	return m
}

// EdgesPerRound returns the mean edges examined per round.
func (p Profile) EdgesPerRound() float64 {
	if p.Rounds == 0 {
		return 0
	}
	return float64(p.EdgesExamined) / float64(p.Rounds)
}

// BFS runs a serial instrumented direction-optimizing BFS and returns its
// profile. The direction heuristic is the GAP reference's (alpha=15,
// beta=18), through the shared frontier.Dispatcher: push until the scout
// count passes edgesToCheck/alpha, then pull while the frontier grows or
// stays above n/beta. So the push/pull round counts are the ones the
// benchmark's BFS actually executes.
func BFS(g *graph.Graph, src graph.NodeID) Profile {
	p := Profile{Kernel: "BFS"}
	n := g.NumNodes()
	if n == 0 {
		return p
	}
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	frontier := []graph.NodeID{src}
	inFrontier := make([]bool, n)
	disp := ft.NewDispatcher(int64(n), g.NumEdges(), g.OutDegree(src))
	pulling := false // GAP's bottom-up loop is still running

	for len(frontier) > 0 {
		p.Rounds++
		p.FrontierSizes = append(p.FrontierSizes, int64(len(frontier)))
		if pulling || disp.UsePull() {
			// Pull round.
			p.PullRounds++
			for i := range inFrontier {
				inFrontier[i] = false
			}
			for _, u := range frontier {
				inFrontier[u] = true
			}
			var next []graph.NodeID
			for v := int32(0); v < n; v++ {
				if parent[v] >= 0 {
					continue
				}
				for _, u := range g.InNeighbors(v) {
					p.EdgesExamined++
					if inFrontier[u] {
						parent[v] = u
						next = append(next, v)
						break
					}
				}
			}
			// Stay bottom-up while the frontier grows or stays large.
			pulling = disp.KeepPulling(int64(len(next)), int64(len(frontier)))
			frontier = next
			disp.EndPull()
		} else {
			// Push round.
			p.PushRounds++
			disp.BeginPush()
			scout := int64(0)
			var next []graph.NodeID
			for _, u := range frontier {
				for _, v := range g.OutNeighbors(u) {
					p.EdgesExamined++
					if parent[v] < 0 {
						parent[v] = u
						next = append(next, v)
						scout += g.OutDegree(v)
					}
				}
			}
			frontier = next
			disp.EndPush(scout)
		}
	}
	return p
}

// SSSP runs a serial instrumented delta-stepping pass and profiles its
// bucket structure: Rounds is the number of bucket passes (the
// synchronizations bucket fusion exists to remove).
func SSSP(g *graph.Graph, src graph.NodeID, delta kernel.Dist) Profile {
	p := Profile{Kernel: "SSSP"}
	n := int(g.NumNodes())
	if n == 0 {
		return p
	}
	if delta <= 0 {
		delta = 16
	}
	dist := make([]kernel.Dist, n)
	for i := range dist {
		dist[i] = kernel.Inf
	}
	dist[src] = 0
	bins := [][]graph.NodeID{{src}}
	for b := 0; b < len(bins); b++ {
		lo := kernel.Dist(b) * delta
		hi := lo + delta
		for len(bins[b]) > 0 {
			p.Rounds++
			frontier := bins[b]
			bins[b] = nil
			p.FrontierSizes = append(p.FrontierSizes, int64(len(frontier)))
			for _, u := range frontier {
				du := dist[u]
				if du < lo || du >= hi {
					continue
				}
				ws := g.OutWeights(u)
				for i, v := range g.OutNeighbors(u) {
					p.EdgesExamined++
					nd := du + ws[i]
					if nd < dist[v] {
						dist[v] = nd
						nb := int(nd / delta)
						for nb >= len(bins) {
							bins = append(bins, nil)
						}
						bins[nb] = append(bins[nb], v)
					}
				}
			}
		}
	}
	return p
}

// PR runs instrumented Jacobi PageRank and profiles its iteration count and
// total edge traffic.
func PR(g *graph.Graph) Profile {
	p := Profile{Kernel: "PR"}
	n := int(g.NumNodes())
	if n == 0 {
		return p
	}
	base := (1 - kernel.PRDamping) / float64(n)
	ranks := make([]float64, n)
	contrib := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < kernel.PRMaxIters; it++ {
		p.Rounds++
		p.FrontierSizes = append(p.FrontierSizes, int64(n))
		dangling := 0.0
		for u := 0; u < n; u++ {
			if d := g.OutDegree(graph.NodeID(u)); d > 0 {
				contrib[u] = ranks[u] / float64(d)
			} else {
				contrib[u] = 0
				dangling += ranks[u]
			}
		}
		share := kernel.PRDamping * dangling / float64(n)
		var delta float64
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.NodeID(v)) {
				p.EdgesExamined++
				sum += contrib[u]
			}
			next := base + share + kernel.PRDamping*sum
			d := next - ranks[v]
			if d < 0 {
				d = -d
			}
			delta += d
			ranks[v] = next
		}
		if delta < kernel.PRTolerance {
			break
		}
	}
	return p
}

// Report renders profiles as an aligned text table plus a frontier
// "sparkline" per profile — the textual stand-in for a characterization
// figure.
func Report(profiles []Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %8s %14s %14s %10s %6s %6s\n",
		"Graph", "Kernel", "Rounds", "Edges", "Edges/Round", "MaxFront", "Push", "Pull")
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-8s %-8s %8d %14d %14.0f %10d %6d %6d\n",
			p.Graph, p.Kernel, p.Rounds, p.EdgesExamined, p.EdgesPerRound(),
			p.MaxFrontier(), p.PushRounds, p.PullRounds)
	}
	b.WriteByte('\n')
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-8s %-8s frontier profile: %s\n", p.Graph, p.Kernel, sparkline(p.FrontierSizes, 60))
	}
	return b.String()
}

// sparkline compresses a series into width buckets of block characters.
func sparkline(series []int64, width int) string {
	if len(series) == 0 {
		return "(empty)"
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if len(series) < width {
		width = len(series)
	}
	var max int64 = 1
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		lo := i * len(series) / width
		hi := (i + 1) * len(series) / width
		if hi == lo {
			hi = lo + 1
		}
		var bucketMax int64
		for _, v := range series[lo:hi] {
			if v > bucketMax {
				bucketMax = v
			}
		}
		idx := int(bucketMax * int64(len(blocks)-1) / max)
		out[i] = blocks[idx]
	}
	return string(out)
}
