package drive

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/verify"
)

// prTolerance is how far a served PR score may sit from the oracle's: SPEC.md
// accepts a vector that one further Jacobi step moves by less than four times
// the convergence tolerance.
const prTolerance = 4 * kernel.PRTolerance

// oracle answers queries on one served graph from the serial reference
// implementations, over the very file the daemon mapped. Whole-graph answers
// are computed once and kept.
type oracle struct {
	name    string
	g       *graph.Graph
	ranks   []float64
	kthBest float64 // the oracle's topK-th highest rank
	labels  []graph.NodeID
	sizes   map[graph.NodeID]int64
}

// openOracles maps the graph files the daemon cached in dir.
func openOracles(dir string, scale int, graphs []GraphInfo) ([]*oracle, func(), error) {
	var out []*oracle
	closeAll := func() {
		for _, o := range out {
			o.g.Close() // read-only mapping; nothing to lose
		}
	}
	for _, gi := range graphs {
		var spec *core.GraphSpec
		for _, s := range core.DefaultSuite(scale) {
			if s.Name == gi.Name {
				spec = &s
			}
		}
		if spec == nil {
			closeAll()
			return nil, nil, fmt.Errorf("served graph %q is not a suite graph", gi.Name)
		}
		g, err := graph.Load(filepath.Join(dir, core.GraphFileName(*spec, "sg")))
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("mapping the daemon's %s: %w", gi.Name, err)
		}
		out = append(out, &oracle{name: gi.Name, g: g})
	}
	return out, closeAll, nil
}

// check returns an error when the served answer disagrees with the oracle.
func (o *oracle) check(s *Sample) error {
	src := graph.NodeID(s.Vertex)
	switch s.Kernel {
	case "BFS":
		want := int64(0)
		for _, d := range verify.BFSDepths(o.g, src) {
			if d >= 0 {
				want++
			}
		}
		if s.Answer.Reached != want {
			return fmt.Errorf("BFS from %d reached %d, oracle %d", src, s.Answer.Reached, want)
		}
	case "SSSP":
		want := int64(0)
		for _, d := range verify.Dijkstra(o.g, src) {
			if d != kernel.Inf {
				want++
			}
		}
		if s.Answer.Reached != want {
			return fmt.Errorf("SSSP from %d reached %d, oracle %d", src, s.Answer.Reached, want)
		}
	case "CC":
		if o.labels == nil {
			o.labels = verify.Components(o.g)
			o.sizes = map[graph.NodeID]int64{}
			for _, l := range o.labels {
				o.sizes[l]++
			}
		}
		if want := o.sizes[o.labels[src]]; s.Answer.Size != want {
			return fmt.Errorf("CC of %d has size %d, oracle %d", src, s.Answer.Size, want)
		}
	case "PR":
		if o.ranks == nil {
			o.ranks = verify.PageRank(o.g, kernel.PRMaxIters, kernel.PRTolerance)
			best := append([]float64(nil), o.ranks...)
			sort.Sort(sort.Reverse(sort.Float64Slice(best)))
			o.kthBest = best[min(topK, len(best))-1]
		}
		top := s.Answer.TopK
		if len(top) != min(topK, len(o.ranks)) {
			return fmt.Errorf("PR returned %d entries, want %d", len(top), topK)
		}
		for i, e := range top {
			if e.V < 0 || e.V >= int64(len(o.ranks)) {
				return fmt.Errorf("PR entry %d names vertex %d", i, e.V)
			}
			if i > 0 && e.Score > top[i-1].Score {
				return fmt.Errorf("PR entries out of order at %d", i)
			}
			if want := o.ranks[e.V]; math.Abs(e.Score-want) > prTolerance {
				return fmt.Errorf("PR score of %d is %g, oracle %g", e.V, e.Score, want)
			}
			if o.ranks[e.V] < o.kthBest-2*prTolerance {
				return fmt.Errorf("PR top-%d holds vertex %d, whose oracle rank %g is below the %dth best %g",
					topK, e.V, o.ranks[e.V], topK, o.kthBest)
			}
		}
	default:
		return fmt.Errorf("unknown kernel %q", s.Kernel)
	}
	return nil
}

// recheckSamples is how many answers are re-checked after the timed phases.
const recheckSamples = 256

// recheck compares OK answers spread evenly over samples with the oracles and
// returns how many it checked and the mismatches it found.
func recheck(samples []*Sample, oracles []*oracle) (checked int, mismatches []string) {
	var ok []*Sample
	for _, s := range samples {
		if s.OK {
			ok = append(ok, s)
		}
	}
	stride := max(1, len(ok)/recheckSamples)
	for i := 0; i < len(ok); i += stride {
		checked++
		o := oracles[ok[i].Graph]
		if err := o.check(ok[i]); err != nil {
			mismatches = append(mismatches, o.name+": "+err.Error())
		}
	}
	return checked, mismatches
}
