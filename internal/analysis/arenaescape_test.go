package analysis

import "testing"

// The arena-escape cases exercise the storage-lifetime rule: graph-derived
// views must not be used, returned, or retained past Graph.Close, while
// copies (and uses that finish before the close) stay clean.
func TestArenaEscape(t *testing.T) {
	checkRule(t, ArenaEscape, []ruleCase{
		{
			name: "use after direct close",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func Sum(g *graph.Graph) int {
	ns := g.OutNeighbors(0)
	g.Close()
	return int(ns[0])
}
`},
			want: []string{`"ns" is a graph-derived view used after Graph.Close in Sum`},
		},
		{
			name: "accessor call after close",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func Peek(g *graph.Graph) graph.NodeID {
	g.Close()
	return g.OutNeighbors(0)[0]
}
`},
			want: []string{"graph accessor call after Graph.Close in Peek"},
		},
		{
			name: "return escapes a deferred close",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func FirstRow(path string) []graph.NodeID {
	g, err := graph.Load(path)
	if err != nil {
		return nil
	}
	defer g.Close()
	return g.OutNeighbors(0)
}
`},
			want: []string{"FirstRow returns graph-derived memory but closes the graph"},
		},
		{
			name: "field retention in a closing function",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

type cache struct{ row []graph.NodeID }

func (c *cache) Fill(g *graph.Graph) {
	c.row = g.OutNeighbors(0)
	g.Close()
}
`},
			want: []string{
				"Fill stores graph-derived memory into a struct field but closes the graph",
			},
		},
		{
			name: "copy before close is clean",
			path: "gapbench/internal/gap",
			files: map[string]string{"good.go": `package gap

import "gapbench/internal/graph"

func FirstRowCopy(path string) []graph.NodeID {
	g, err := graph.Load(path)
	if err != nil {
		return nil
	}
	defer g.Close()
	ns := g.OutNeighbors(0)
	own := make([]graph.NodeID, len(ns))
	copy(own, ns)
	return own
}
`},
			want: nil,
		},
		{
			name: "use before a later close is clean",
			path: "gapbench/internal/gap",
			files: map[string]string{"good.go": `package gap

import "gapbench/internal/graph"

func SumThenClose(g *graph.Graph) int {
	total := 0
	for _, v := range g.OutNeighbors(0) {
		total += int(v)
	}
	g.Close()
	return total
}
`},
			want: nil,
		},
		{
			name: "no close means no findings",
			path: "gapbench/internal/gap",
			files: map[string]string{"good.go": `package gap

import "gapbench/internal/graph"

type view struct{ row []graph.NodeID }

func (v *view) Fill(g *graph.Graph) {
	v.row = g.OutNeighbors(0)
}
`},
			want: nil,
		},
	})
}

// TestArenaEscapeRealPackages pins the rule silent on the real packages that
// legitimately close graphs: the harness core and the CLIs.
func TestArenaEscapeRealPackages(t *testing.T) {
	for _, rel := range []string{"internal/core", "cmd/gapbench", "cmd/graphgen"} {
		pkg := loadRealDir(t, rel)
		if got := runRuleOn(t, ArenaEscape, pkg, parPackage(t)); len(got) != 0 {
			t.Errorf("arena-escape findings on real %s:\n%v", rel, got)
		}
	}
}
