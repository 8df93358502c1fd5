package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// TestCrossValidationProperty is the paper's cross-validation made a
// property test: on random graphs, all six frameworks must agree with each
// other (not merely with the oracle) on every kernel's semantic content —
// BFS reachability and depths, SSSP distances, CC partitions, PR scores, BC
// scores, and the TC scalar.
func TestCrossValidationProperty(t *testing.T) {
	frameworks := core.Frameworks()
	m := par.NewMachine(2)
	defer m.Close()
	f := func(raw []uint8, directed bool) bool {
		edges := make([]graph.WEdge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.WEdge{
				U: graph.NodeID(raw[i] % 24),
				V: graph.NodeID(raw[i+1] % 24),
				W: graph.Weight(raw[i]%250) + 1,
			})
		}
		g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: 24, Directed: directed})
		if err != nil {
			return false
		}
		opt := kernel.Options{Machine: m, UndirectedView: g.Undirected()}
		src := graph.NodeID(0)

		var refDist []kernel.Dist
		var refComp []graph.NodeID
		var refPR, refBC []float64
		var refTC int64
		var refReach []bool
		for i, fw := range frameworks {
			parents := fw.BFS(g, src, opt)
			reach := make([]bool, len(parents))
			for v, p := range parents {
				reach[v] = p >= 0
			}
			dist := fw.SSSP(g, src, opt)
			comp := fw.CC(g, opt)
			pr := fw.PR(g, opt)
			bc := fw.BC(g, []graph.NodeID{src}, opt)
			tc := fw.TC(g, opt)
			if i == 0 {
				refReach, refDist, refComp, refPR, refBC, refTC = reach, dist, comp, pr, bc, tc
				continue
			}
			for v := range reach {
				if reach[v] != refReach[v] {
					return false
				}
				if dist[v] != refDist[v] {
					return false
				}
				if math.Abs(pr[v]-refPR[v]) > 1e-3 {
					return false
				}
				if math.Abs(bc[v]-refBC[v]) > 1e-6 {
					return false
				}
				// Component labels may differ; same-partition relation must
				// match against vertex 0's component.
				if (comp[v] == comp[0]) != (refComp[v] == refComp[0]) {
					return false
				}
			}
			if tc != refTC {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestTCOracleAgreesWithEveryFramework is the TC column of the suite, cell by
// cell: on the skewed, uniform and bounded-degree graphs every framework's
// count — merge, SpGEMM, with and without its own relabel — must equal the
// degree-oriented oracle's, and the oracle must not care which labelling of
// the graph it is handed.
func TestTCOracleAgreesWithEveryFramework(t *testing.T) {
	m := par.NewMachine(2)
	defer m.Close()
	for _, name := range []string{"Kron", "Urand", "Road"} {
		in, err := core.LoadInput(core.GraphSpec{Name: name, Scale: 9, Seed: 3, Delta: 16, SourceSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want := verify.Triangles(in.Graph)
		if got := verify.Triangles(in.RelabeledView()); got != want {
			t.Errorf("%s: oracle counts %d on the relabelled view, %d on the graph", name, got, want)
		}
		opt := kernel.Options{Machine: m, UndirectedView: in.Undirected}
		for _, fw := range core.Frameworks() {
			if got := fw.TC(in.Graph, opt); got != want {
				t.Errorf("%s/%s: TC = %d, oracle %d", name, fw.Name(), got, want)
			}
		}
	}
}
