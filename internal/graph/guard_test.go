package graph

import (
	"strings"
	"testing"

	"gapbench/internal/invariant"
)

// guardGraph builds a small directed weighted graph, so all six CSR arrays
// are distinct (an undirected graph aliases the in-CSR to the out-CSR).
func guardGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := BuildWeighted([]WEdge{
		{U: 0, V: 1, W: 3}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 5},
		{U: 2, V: 3, W: 2}, {U: 3, V: 0, W: 4}, {U: 3, V: 1, W: 9},
	}, BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The checksums are always compiled (only Seal's arming is gated), so their
// properties are testable in an unarmed build.

func TestGuardChecksumIsOrderSensitive(t *testing.T) {
	a := checksum32([]int32{1, 2, 3})
	b := checksum32([]int32{2, 1, 3})
	if a == b {
		t.Errorf("checksum32 did not distinguish swapped elements: %#x", a)
	}
	c := checksum64([]int64{7, 8})
	d := checksum64([]int64{8, 7})
	if c == d {
		t.Errorf("checksum64 did not distinguish swapped elements: %#x", c)
	}
}

func TestGuardChecksumIsLengthSensitive(t *testing.T) {
	if checksum32([]int32{0}) == checksum32([]int32{0, 0}) {
		t.Error("checksum32 did not distinguish [0] from [0 0]")
	}
	if checksum64(nil) == checksum64([]int64{0}) {
		t.Error("checksum64 did not distinguish nil from [0]")
	}
}

func TestGuardNilAndUnsealedAreNoOps(t *testing.T) {
	var nilG *Graph
	nilG.Seal() // must not panic
	if err := nilG.CheckSeal(); err != nil {
		t.Errorf("nil graph: CheckSeal = %v, want nil", err)
	}
	g := guardGraph(t)
	if err := g.CheckSeal(); err != nil {
		t.Errorf("unsealed graph: CheckSeal = %v, want nil", err)
	}
	g.MustCheckSeal() // must not panic
}

func TestGuardDisabledSealIsInert(t *testing.T) {
	if invariant.Armed() {
		t.Skip("needs a build without -tags=check")
	}
	g := guardGraph(t)
	g.Seal()
	if g.seal != nil {
		t.Error("Seal recorded checksums with the guard off")
	}
}

// TestGuardDetectsEachArray mutates one element of every CSR array in turn
// and requires CheckSeal to name exactly that array, then restores it and
// requires the seal to verify again.
func TestGuardDetectsEachArray(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	g := guardGraph(t)
	g.Seal()
	if err := g.CheckSeal(); err != nil {
		t.Fatalf("fresh seal: %v", err)
	}
	cases := []struct {
		name           string
		mutate, revert func()
	}{
		{"outIndex", func() { g.outIndex[1]++ }, func() { g.outIndex[1]-- }},
		{"outNeigh", func() { g.outNeigh[0]++ }, func() { g.outNeigh[0]-- }},
		{"inIndex", func() { g.inIndex[2]++ }, func() { g.inIndex[2]-- }},
		{"inNeigh", func() { g.inNeigh[1]++ }, func() { g.inNeigh[1]-- }},
		{"outWeight", func() { g.outWeight[3]++ }, func() { g.outWeight[3]-- }},
		{"inWeight", func() { g.inWeight[0]++ }, func() { g.inWeight[0]-- }},
	}
	for _, c := range cases {
		c.mutate()
		err := g.CheckSeal()
		if err == nil {
			t.Errorf("%s: mutation not detected", c.name)
		} else if !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: error %q does not name the array", c.name, err)
		}
		c.revert()
		if err := g.CheckSeal(); err != nil {
			t.Errorf("%s: seal broken after revert: %v", c.name, err)
		}
	}
}

func TestGuardResealAcceptsRebuild(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	g := guardGraph(t)
	g.Seal()
	g.outNeigh[0]++ // a legitimate in-package rebuild would do this...
	g.Seal()        // ...and re-seal afterwards
	if err := g.CheckSeal(); err != nil {
		t.Errorf("re-seal did not adopt the new contents: %v", err)
	}
}

func TestGuardMustCheckSealPanics(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	g := guardGraph(t)
	g.Seal()
	g.inNeigh[0]++
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("MustCheckSeal did not panic on a corrupted array")
		}
		if !strings.Contains(fmtPanic(p), "inNeigh") {
			t.Errorf("panic %v does not name the corrupted array", p)
		}
	}()
	g.MustCheckSeal()
}

func fmtPanic(p any) string {
	if err, ok := p.(error); ok {
		return err.Error()
	}
	if s, ok := p.(string); ok {
		return s
	}
	return ""
}

// TestGuardSealFromHeaderSums proves the O(1) header-based seal agrees with
// the recomputing CheckSeal: seal a graph carrying v2 header checksums, then
// let CheckSeal re-hash every live array against it. Covers the directed
// (all six slots distinct) and undirected (in-views alias out-views, header
// in-sections absent) cases.
func TestGuardSealFromHeaderSums(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	dg := guardGraph(t)
	ug, err := BuildWeighted([]WEdge{{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 6}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"directed": dg, "undirected": ug} {
		path := t.TempDir() + "/" + name + ".sg"
		if err := g.SaveSG(path); err != nil {
			t.Fatalf("%s: SaveSG: %v", name, err)
		}
		// The save stamped hdrSums on the heap graph itself: Seal must take
		// the cheap path and still verify.
		if g.hdrSums == nil {
			t.Fatalf("%s: SaveSG did not record header checksums", name)
		}
		g.Seal()
		if err := g.CheckSeal(); err != nil {
			t.Errorf("%s: header-based seal does not verify: %v", name, err)
		}
		g.outNeigh[0]++
		if err := g.CheckSeal(); err == nil {
			t.Errorf("%s: mutation under header-based seal not detected", name)
		}
		g.outNeigh[0]--

		// And the same for the mmap-loaded copy.
		m, err := Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if !m.Arena().Mapped() {
			t.Fatalf("%s: loaded graph not mapped", name)
		}
		m.Seal()
		if err := m.CheckSeal(); err != nil {
			t.Errorf("%s: mmap graph seal does not verify: %v", name, err)
		}
		if err := m.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}
