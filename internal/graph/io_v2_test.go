package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gapbench/internal/graph"
)

// sgCases builds the format-v2 round-trip corpus: every combination of
// direction and weights, plus empty and degree-relabeled graphs.
func sgCases(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	wg, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 3}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 5},
		{U: 2, V: 3, W: 2}, {U: 3, V: 0, W: 4}, {U: 3, V: 1, W: 9},
	}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	uwg, err := graph.BuildWeighted([]graph.WEdge{
		{U: 0, V: 1, W: 7}, {U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 1},
	}, graph.BuildOptions{Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := graph.Build([]graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2},
	}, graph.BuildOptions{Directed: true, Layout: graph.LayoutDegree})
	if err != nil {
		t.Fatal(err)
	}
	emptyW, err := graph.BuildWeighted(nil, graph.BuildOptions{NumNodes: 3, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"directed":   mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, graph.BuildOptions{Directed: true}),
		"undirected": mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{}),
		"weighted":   wg,
		"uweighted":  uwg,
		"degree":     deg,
		"empty":      mustBuild(t, nil, graph.BuildOptions{NumNodes: 5}),
		"emptyW":     emptyW,
	}
}

func TestSGRoundTripStream(t *testing.T) {
	for name, g := range sgCases(t) {
		g.SetProvenance(name, 4, 27)
		var buf bytes.Buffer
		if err := g.WriteSG(&buf); err != nil {
			t.Fatalf("%s: WriteSG: %v", name, err)
		}
		back, err := graph.ReadFrom(&buf)
		if err != nil {
			t.Fatalf("%s: ReadFrom: %v", name, err)
		}
		if !graphsEqual(g, back) {
			t.Fatalf("%s: v2 stream round trip changed the graph", name)
		}
		if back.Layout() != g.Layout() {
			t.Errorf("%s: layout %v -> %v", name, g.Layout(), back.Layout())
		}
		if back.Epoch() != g.Epoch() {
			t.Errorf("%s: epoch %#x -> %#x", name, g.Epoch(), back.Epoch())
		}
		if pn, ps, pd := back.Provenance(); pn != name || ps != 4 || pd != 27 {
			t.Errorf("%s: provenance = (%q,%d,%d)", name, pn, ps, pd)
		}
	}
}

func TestSGRoundTripMmap(t *testing.T) {
	dir := t.TempDir()
	for name, g := range sgCases(t) {
		path := filepath.Join(dir, name+".sg")
		if err := g.SaveSG(path); err != nil {
			t.Fatalf("%s: SaveSG: %v", name, err)
		}
		back, err := graph.Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if !back.Arena().Mapped() {
			t.Errorf("%s: loaded v2 graph is not mmap-backed", name)
		}
		if !graphsEqual(g, back) {
			t.Fatalf("%s: mmap round trip changed the graph", name)
		}
		if back.Epoch() != g.Epoch() {
			t.Errorf("%s: epoch %#x -> %#x", name, g.Epoch(), back.Epoch())
		}
		if err := back.VerifyChecksums(); err != nil {
			t.Errorf("%s: VerifyChecksums: %v", name, err)
		}
		if err := back.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// saveSample writes one small weighted directed graph and returns its bytes.
func saveSample(t *testing.T) (string, []byte) {
	t.Helper()
	g := sgCases(t)["weighted"]
	path := filepath.Join(t.TempDir(), "g.sg")
	if err := g.SaveSG(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestSGHeaderCorruption flips every header byte in turn: each flip must make
// Load fail cleanly (the header checksum covers bytes [0,248), and flipping
// the stored checksum itself breaks the comparison), and must never panic.
func TestSGHeaderCorruption(t *testing.T) {
	path, raw := saveSample(t)
	for off := 0; off < 256; off++ {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.Load(path); err == nil {
			t.Fatalf("flipped header byte %d accepted", off)
		}
		if _, err := graph.ReadFrom(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipped header byte %d accepted by stream reader", off)
		}
	}
}

func TestSGTruncation(t *testing.T) {
	path, raw := saveSample(t)
	for _, n := range []int{0, 3, 8, 100, 255, 256, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.Load(path); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if _, err := graph.ReadFrom(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted by stream reader", n)
		}
	}
	// Trailing garbage must be rejected too: the header states the exact size.
	if err := os.WriteFile(path, append(append([]byte(nil), raw...), 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Load(path); err == nil {
		t.Error("oversized file accepted")
	}
}

// TestSGBodyCorruption flips a neighbor byte: the O(header) mmap load cannot
// see it (by design), but VerifyChecksums must, and the strict stream reader
// must reject the file outright.
func TestSGBodyCorruption(t *testing.T) {
	path, raw := saveSample(t)
	bad := append([]byte(nil), raw...)
	bad[256+64] ^= 1 // first byte of the outNeigh section
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Load(path)
	if err != nil {
		t.Fatalf("Load after body flip: %v (mmap load should defer content checks)", err)
	}
	if err := g.VerifyChecksums(); err == nil {
		t.Error("VerifyChecksums missed a flipped neighbor byte")
	}
	if err := g.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := graph.ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("stream reader accepted a flipped neighbor byte")
	}
}

// TestWriteSGClosedGraphFails: a closed graph has no arena to write, so
// WriteSG and SaveSG refuse it instead of writing a file that loads back as
// the right vertex count with no edges, and SaveSG leaves no file behind.
func TestWriteSGClosedGraphFails(t *testing.T) {
	g := mustBuild(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, graph.BuildOptions{Directed: true})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSG(&buf); err == nil {
		back, rerr := graph.ReadFrom(&buf)
		t.Fatalf("WriteSG on a closed graph returned nil (the bytes read back as %v, err %v)", back, rerr)
	}
	path := filepath.Join(t.TempDir(), "closed.sg")
	if err := g.SaveSG(path); err == nil {
		t.Fatal("SaveSG on a closed graph returned nil")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("SaveSG on a closed graph left a file: %v", err)
	}
}

func TestSGMmapCloseThenUsePanics(t *testing.T) {
	path, _ := saveSample(t)
	g, err := graph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("use after Close did not panic")
		}
	}()
	_ = g.OutNeighbors(0)
}
