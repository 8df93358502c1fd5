package kernel_test

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

// phaseWidths are the machine widths the shared phases run at: serial, the
// host's two cores, and more slots than the host has cores.
var phaseWidths = []int{1, 2, 7}

// TestUnionFindPhases runs Afforest from the shared phases — link each
// vertex's first neighbour, compress, pick the giant label, link every other
// edge of the vertices outside it, compress — and requires exactly the
// oracle's labels: every hook puts the lower root on top, so each label is
// its component's minimum id, whichever component the pick names.
func TestUnionFindPhases(t *testing.T) {
	for _, tc := range testutil.AllGraphs(t) {
		g := tc.Graph
		want := verify.Components(g)
		for _, w := range phaseWidths {
			m := par.NewMachine(w)
			got := afforest(m, g)
			m.Close()
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d wide: labels differ from verify.Components", tc.Name, w)
			}
		}
	}
}

func afforest(exec *par.Machine, g *graph.Graph) []graph.NodeID {
	n := int(g.NumNodes())
	comp := make([]graph.NodeID, n)
	for i := range comp {
		comp[i] = graph.NodeID(i)
	}
	if n == 0 {
		return comp
	}
	exec.ForDynamic(n, 4, 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if neigh := g.OutNeighbors(graph.NodeID(u)); len(neigh) > 0 {
				kernel.Link(graph.NodeID(u), neigh[0], comp)
			}
		}
	})
	kernel.Compress(exec, comp)
	giant := kernel.GiantLabel(comp)
	exec.ForDynamic(n, 4, 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if atomic.LoadInt32(&comp[u]) == giant {
				continue
			}
			neigh := g.OutNeighbors(graph.NodeID(u))
			for _, v := range neigh[min(1, len(neigh)):] {
				kernel.Link(graph.NodeID(u), v, comp)
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(graph.NodeID(u)) {
					kernel.Link(graph.NodeID(u), v, comp)
				}
			}
		}
	})
	kernel.Compress(exec, comp)
	return comp
}

// TestGiantLabel: the pick follows each sample to its root and returns the
// most frequent root.
func TestGiantLabel(t *testing.T) {
	// 0 <- 1 <- 2 is one tree of three; 3 and 4 are roots of their own.
	if got := kernel.GiantLabel([]graph.NodeID{0, 0, 1, 3, 4}); got != 0 {
		t.Errorf("GiantLabel = %d, want the three-vertex tree's root 0", got)
	}
	if got := kernel.GiantLabel([]graph.NodeID{0}); got != 0 {
		t.Errorf("GiantLabel of one vertex = %d, want 0", got)
	}
}

// TestBCSweeps runs the two sweeps over an oracle BFS from each root and
// requires the oracle's normalized scores. The sweeps may read sigma and
// delta only of vertices in the levels, and only after writing them —
// except sigma[src] and delta on the deepest level — so every other entry
// starts as NaN, which poisons any score that reads it.
func TestBCSweeps(t *testing.T) {
	for _, tc := range testutil.AllGraphs(t) {
		g := tc.Graph
		n := int(g.NumNodes())
		sources := testutil.BCSources(g)
		want := verify.Betweenness(g, sources)
		for _, w := range phaseWidths {
			m := par.NewMachine(w)
			scores := make([]float64, n)
			sigma := make([]float64, n)
			delta := make([]float64, n)
			for _, src := range sources {
				depth := verify.BFSDepths(g, src)
				var levels [][]graph.NodeID
				for v, d := range depth {
					if d < 0 {
						continue
					}
					for int(d) >= len(levels) {
						levels = append(levels, nil)
					}
					levels[d] = append(levels[d], graph.NodeID(v))
				}
				for v := range sigma {
					sigma[v], delta[v] = math.NaN(), math.NaN()
				}
				sigma[src] = 1
				for _, v := range levels[len(levels)-1] {
					delta[v] = 0
				}
				kernel.BCSweeps(m, g, src, levels, 4, depth, sigma, delta, scores)
			}
			m.Close()
			if err := verify.CompareBC(want, kernel.BCNormalize(scores)); err != nil {
				t.Errorf("%s, %d wide: %v", tc.Name, w, err)
			}
		}
	}
}
