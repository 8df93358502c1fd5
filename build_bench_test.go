// build_bench_test.go: benchmarks for the counting-sort CSR ingest pipeline.
//
// BenchmarkBuild times graph construction from in-memory edge lists across
// the three GAP degree shapes (Kron: heavy-tail, Urand: concentrated, Road:
// bounded), directed and undirected, weighted and unweighted — with a
// retained copy of the pre-pipeline sort-based builder (SortRef) as the
// baseline every Counting cell is measured against. Build time is *untimed*
// under the GAP rules (EXPERIMENTS.md records the accounting), but it
// dominates wall-clock for short benchmark runs, which is why the pipeline
// exists.
//
// BenchmarkDegreeRelabel and BenchmarkTrianglesOracle time the two pieces of
// a verified TC trial that are not the kernel: the relabel the Baseline rules
// charge to the trial, and the oracle that checks its count.
package gapbench_test

import (
	"fmt"
	"sort"
	"testing"

	"gapbench/internal/graph"
	"gapbench/internal/verify"
)

// buildBenchScale gives 2^14 vertices; with edgeFactor 16 that is 2^18
// directed edges per Kron/Urand list — the ISSUE's minimum evidence size.
const (
	buildBenchScale = 14
	edgeFactor      = 16
)

// splitmix64 is the generator used throughout; self-contained so benchmark
// inputs never drift with the generate package.
type benchRNG struct{ x uint64 }

func (r *benchRNG) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *benchRNG) weight() graph.Weight { return graph.Weight(1 + r.next()%255) }

// kronBenchEdges draws an RMAT/Kronecker-shaped list (a=0.57, b=c=0.19):
// heavy-tail degrees, many duplicate edges — the adversarial shape for both
// the comparison sort (long equal runs) and the segment sorts (hub rows).
func kronBenchEdges(scale, ef int, seed uint64) []graph.WEdge {
	r := &benchRNG{x: seed}
	n := 1 << scale
	m := n * ef
	edges := make([]graph.WEdge, m)
	for i := range edges {
		var u, v int
		for bit := 0; bit < scale; bit++ {
			p := r.next() % 100
			switch {
			case p < 57: // a: top-left
			case p < 76: // b: top-right
				v |= 1 << bit
			case p < 95: // c: bottom-left
				u |= 1 << bit
			default: // d: bottom-right
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges[i] = graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(v), W: r.weight()}
	}
	return edges
}

// urandBenchEdges draws endpoints uniformly: Erdős–Rényi-shaped,
// concentrated degrees, few duplicates.
func urandBenchEdges(scale, ef int, seed uint64) []graph.WEdge {
	r := &benchRNG{x: seed}
	n := uint64(1) << scale
	edges := make([]graph.WEdge, int(n)*ef)
	for i := range edges {
		edges[i] = graph.WEdge{
			U: graph.NodeID(r.next() % n),
			V: graph.NodeID(r.next() % n),
			W: r.weight(),
		}
	}
	return edges
}

// roadBenchEdges builds a ring with sparse random chords, both arcs listed —
// bounded degree, nearly duplicate-free, the Road shape.
func roadBenchEdges(scale int, seed uint64) []graph.WEdge {
	r := &benchRNG{x: seed}
	n := uint64(1) << scale
	edges := make([]graph.WEdge, 0, int(n)*3)
	for u := uint64(0); u < n; u++ {
		v := (u + 1) % n
		w := graph.Weight(1 + r.next()%255)
		edges = append(edges,
			graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(v), W: w},
			graph.WEdge{U: graph.NodeID(v), V: graph.NodeID(u), W: w})
		if r.next()%8 == 0 { // occasional chord, like a highway segment
			c := r.next() % n
			cw := graph.Weight(1 + r.next()%255)
			edges = append(edges,
				graph.WEdge{U: graph.NodeID(u), V: graph.NodeID(c), W: cw},
				graph.WEdge{U: graph.NodeID(c), V: graph.NodeID(u), W: cw})
		}
	}
	return edges
}

// sortRefBuild is the pre-pipeline builder, kept verbatim (serialized) as
// the benchmark baseline: materialize the directed edge multiset, comparison
// sort by (U,V,W), global dedup keeping the min-weight duplicate, pack, and
// for directed graphs repeat on the transposed list.
func sortRefBuild(edges []graph.WEdge, n int32, directed bool) {
	work := make([]graph.WEdge, 0, len(edges)*2)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		work = append(work, e)
		if !directed {
			work = append(work, graph.WEdge{U: e.V, V: e.U, W: e.W})
		}
	}
	sortRefCSR(n, work)
	if directed {
		tr := make([]graph.WEdge, len(work))
		for i, e := range work {
			tr[i] = graph.WEdge{U: e.V, V: e.U, W: e.W}
		}
		sortRefCSR(n, tr)
	}
}

func sortRefCSR(n int32, edges []graph.WEdge) ([]int64, []graph.NodeID, []graph.Weight) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].W < edges[j].W
	})
	kept := edges[:0]
	for i, e := range edges {
		if i > 0 && e.U == edges[i-1].U && e.V == edges[i-1].V {
			continue
		}
		kept = append(kept, e)
	}
	index := make([]int64, n+1)
	for _, e := range kept {
		index[e.U+1]++
	}
	for i := int32(0); i < n; i++ {
		index[i+1] += index[i]
	}
	neigh := make([]graph.NodeID, len(kept))
	weight := make([]graph.Weight, len(kept))
	for i, e := range kept {
		neigh[i] = e.V
		weight[i] = e.W
	}
	return index, neigh, weight
}

func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name  string
		edges []graph.WEdge
		n     int32
	}{
		{"Kron", kronBenchEdges(buildBenchScale, edgeFactor, 0x1234), 1 << buildBenchScale},
		{"Urand", urandBenchEdges(buildBenchScale, edgeFactor, 0x5678), 1 << buildBenchScale},
		{"Road", roadBenchEdges(buildBenchScale, 0x9abc), 1 << buildBenchScale},
	}
	for _, sh := range shapes {
		for _, directed := range []bool{true, false} {
			dir := "Undirected"
			if directed {
				dir = "Directed"
			}
			for _, weighted := range []bool{true, false} {
				wt := "Unweighted"
				if weighted {
					wt = "Weighted"
				}
				opt := graph.BuildOptions{NumNodes: sh.n, Directed: directed}
				var unweighted []graph.Edge
				if !weighted {
					unweighted = make([]graph.Edge, len(sh.edges))
					for i, e := range sh.edges {
						unweighted[i] = graph.Edge{U: e.U, V: e.V}
					}
				}
				b.Run(fmt.Sprintf("%s/%s/%s/Counting", sh.name, dir, wt), func(b *testing.B) {
					b.ReportMetric(float64(len(sh.edges)), "edges/op")
					for i := 0; i < b.N; i++ {
						var err error
						if weighted {
							_, err = graph.BuildWeighted(sh.edges, opt)
						} else {
							_, err = graph.Build(unweighted, opt)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("%s/%s/%s/SortRef", sh.name, dir, wt), func(b *testing.B) {
					b.ReportMetric(float64(len(sh.edges)), "edges/op")
					for i := 0; i < b.N; i++ {
						in := sh.edges
						if !weighted {
							// The old Build also went through the weighted
							// path with zero weights.
							in = make([]graph.WEdge, len(sh.edges))
							for j, e := range sh.edges {
								in[j] = graph.WEdge{U: e.U, V: e.V}
							}
						}
						sortRefBuild(in, sh.n, directed)
					}
				})
			}
		}
	}
}

// BenchmarkDegreeRelabel times graph.DegreeRelabel — the counting-sort
// ordering plus the cursor-scatter CSR rebuild — on the two shapes a TC trial
// hands it: a skewed weighted undirected graph, where the Baseline rules put
// this inside every timed trial, and a Road-shaped one.
func BenchmarkDegreeRelabel(b *testing.B) {
	shapes := []struct {
		name  string
		edges []graph.WEdge
	}{
		{"Kron", kronBenchEdges(buildBenchScale, edgeFactor, 0x1234)},
		{"Road", roadBenchEdges(buildBenchScale, 0x9abc)},
	}
	for _, sh := range shapes {
		g, err := graph.BuildWeighted(sh.edges, graph.BuildOptions{NumNodes: 1 << buildBenchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
			for b.Loop() {
				graph.DegreeRelabel(nil, g)
			}
			b.ReportMetric(float64(g.NumEdges()), "edges/op")
		})
	}
}

// BenchmarkTrianglesOracle times verify.Triangles, the serial TC oracle the
// runner calls once per verified TC trial, on the heavy-tailed shape whose
// hubs made the old full-list merge the largest cost of a Kron sweep.
func BenchmarkTrianglesOracle(b *testing.B) {
	g, err := graph.BuildWeighted(kronBenchEdges(buildBenchScale, edgeFactor, 0x1234),
		graph.BuildOptions{NumNodes: 1 << buildBenchScale})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		verify.Triangles(g)
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
}
