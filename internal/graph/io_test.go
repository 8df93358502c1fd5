package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"gapbench/internal/graph"
)

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() ||
		a.Directed() != b.Directed() || a.Weighted() != b.Weighted() {
		return false
	}
	for u := int32(0); u < a.NumNodes(); u++ {
		na, nb := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
		if a.Weighted() {
			wa, wb := a.OutWeights(u), b.OutWeights(u)
			for i := range wa {
				if wa[i] != wb[i] {
					return false
				}
			}
		}
		ia, ib := a.InNeighbors(u), b.InNeighbors(u)
		if len(ia) != len(ib) {
			return false
		}
		for i := range ia {
			if ia[i] != ib[i] {
				return false
			}
		}
	}
	return true
}

func TestSerializationRoundTrip(t *testing.T) {
	cases := []*graph.Graph{
		mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, graph.BuildOptions{Directed: true}),
		mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Directed: false}),
		mustBuild(t, nil, graph.BuildOptions{NumNodes: 5}),
	}
	wg, err := graph.BuildWeighted([]graph.WEdge{{U: 0, V: 1, W: 42}, {U: 1, V: 0, W: 7}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, wg)

	for i, g := range cases {
		var buf bytes.Buffer
		if err := g.WriteSG(&buf); err != nil {
			t.Fatalf("case %d: WriteSG: %v", i, err)
		}
		back, err := graph.ReadFrom(&buf)
		if err != nil {
			t.Fatalf("case %d: ReadFrom: %v", i, err)
		}
		if !graphsEqual(g, back) {
			t.Fatalf("case %d: round trip changed the graph", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	path := filepath.Join(t.TempDir(), "g.sg")
	if err := g.SaveSG(path); err != nil {
		t.Fatal(err)
	}
	back, err := graph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !graphsEqual(g, back) {
		t.Fatal("file round trip changed the graph")
	}
}

// TestVersion1Rejected: the retired stream format is refused by both readers
// with an error that says what to do, never decoded and never a panic.
func TestVersion1Rejected(t *testing.T) {
	v1 := []byte("GAPB\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00")
	_, err := graph.ReadFrom(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "regenerate it with graphgen") {
		t.Errorf("ReadFrom(v1 header) = %v, want a regenerate-with-graphgen error", err)
	}
	path := filepath.Join(t.TempDir(), "old.gapb")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Load(path); err == nil || !strings.Contains(err.Error(), "regenerate it with graphgen") {
		t.Errorf("Load(v1 file) = %v, want a regenerate-with-graphgen error", err)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := graph.ReadFrom(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := graph.ReadFrom(bytes.NewReader([]byte("GAPB\x09\x00\x00\x00"))); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := graph.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated payload.
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{Directed: true})
	var buf bytes.Buffer
	if err := g.WriteSG(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-4]
	if _, err := graph.ReadFrom(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated payload accepted")
	}
}

// Property: any random edge list survives a serialization round trip.
func TestSerializationProperty(t *testing.T) {
	f := func(raw []uint16, directed bool) bool {
		edges := make([]graph.WEdge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.WEdge{
				U: graph.NodeID(raw[i] % 64),
				V: graph.NodeID(raw[i+1] % 64),
				W: graph.Weight(raw[i]%255) + 1,
			})
		}
		g, err := graph.BuildWeighted(edges, graph.BuildOptions{NumNodes: 64, Directed: directed})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := g.WriteSG(&buf); err != nil {
			return false
		}
		back, err := graph.ReadFrom(&buf)
		if err != nil {
			return false
		}
		return graphsEqual(g, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
