package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"gapbench/internal/graph"
)

// FuzzReadEdgeList exercises the text parser with arbitrary input: it must
// never panic, and anything it accepts must build into a graph whose edge
// count is bounded by the accepted line count.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("0 1 250\n# comment\n\n2 3 9\n")
	f.Add("not numbers\n")
	f.Add("1")
	f.Fuzz(func(t *testing.T, input string) {
		edges, _, err := graph.ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, e := range edges {
			if e.U < 0 || e.V < 0 {
				t.Fatalf("parser accepted negative id: %+v", e)
			}
		}
		// Accepted edges must survive graph construction when in range.
		g, err := graph.BuildWeighted(edges, graph.BuildOptions{Directed: true})
		if err != nil {
			return
		}
		if g.NumEdges() > int64(len(edges)) {
			t.Fatalf("built %d edges from %d inputs", g.NumEdges(), len(edges))
		}
	})
}

// FuzzBuildMatchesReference decodes arbitrary bytes into small edge lists
// (high collision rate: 32 vertices, 4 weight values, so duplicates and
// weight ties abound) and cross-checks the counting-sort builder against the
// retained sort-based reference from builder_ref_test.go.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 0, 3}, false, false)
	f.Add([]byte{3, 3, 3, 3, 7, 1, 3, 3, 2}, true, true)
	f.Add([]byte{}, true, false)
	f.Fuzz(func(t *testing.T, data []byte, directed, keep bool) {
		var edges []graph.WEdge
		for i := 0; i+2 < len(data); i += 3 {
			edges = append(edges, graph.WEdge{
				U: graph.NodeID(data[i] % 32),
				V: graph.NodeID(data[i+1] % 32),
				W: graph.Weight(data[i+2] % 4),
			})
		}
		opt := graph.BuildOptions{Directed: directed, KeepSelfLoops: keep}
		rg, refErr := refBuildWeighted(t, edges, opt)
		g, err := graph.BuildWeighted(edges, opt)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		assertCSREqual(t, "fuzz", g, rg, true)
	})
}

// FuzzReadFrom feeds arbitrary bytes to the binary deserializer: it must
// never panic and never return a structurally inconsistent graph.
func FuzzReadFrom(f *testing.F) {
	g, err := graph.BuildWeighted([]graph.WEdge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 5}},
		graph.BuildOptions{Directed: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSG(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte("GAPB"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := graph.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Structural invariants on anything accepted.
		n := got.NumNodes()
		for u := int32(0); u < n; u++ {
			for _, v := range got.OutNeighbors(u) {
				if v < 0 || v >= n {
					t.Fatalf("deserialized out-of-range neighbor %d (n=%d)", v, n)
				}
			}
		}
	})
}
