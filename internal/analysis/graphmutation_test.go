package analysis

import "testing"

// The graph-mutation cases exercise the write-set lattice (writeset.go):
// graph-derived origins must survive local aliasing, re-slicing, parameter
// binding, and function returns, while copies into fresh memory must launder
// them away.
func TestGraphMutation(t *testing.T) {
	checkRule(t, GraphMutation, []ruleCase{
		{
			name: "store through direct alias",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func RelabelInPlace(g *graph.Graph, u graph.NodeID) {
	ns := g.OutNeighbors(u)
	ns[0] = 7
}
`},
			want: []string{"element store through graph-derived memory in RelabelInPlace"},
		},
		{
			name: "store through re-slice chain",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func Chop(g *graph.Graph, u graph.NodeID) {
	a := g.OutNeighbors(u)
	b := a[1:]
	c := b[:1]
	c[0] = -1
}
`},
			want: []string{"element store through graph-derived memory in Chop"},
		},
		{
			name: "store through parameter convicts the call site",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func zeroWeights(ws []graph.Weight) {
	for i := range ws {
		ws[i] = 0
	}
}

func ZeroAll(g *graph.Graph, u graph.NodeID) {
	zeroWeights(g.OutWeights(u))
}
`},
			want: []string{"ZeroAll passes graph-derived memory to gap.zeroWeights"},
		},
		{
			name: "store through memory escaping via return",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func firstOut(g *graph.Graph) []graph.NodeID {
	return g.OutNeighbors(0)
}

func TruncateFirst(g *graph.Graph) {
	head := firstOut(g)[:1]
	head[0] = -1
}
`},
			want: []string{"element store through graph-derived memory in TruncateFirst"},
		},
		{
			name: "in-place sort of an accessor slice",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import (
	"sort"

	"gapbench/internal/graph"
)

func SortNeighbors(g *graph.Graph, u graph.NodeID) {
	ns := g.OutNeighbors(u)
	sort.Slice(ns, func(i, j int) bool { return ns[i] > ns[j] })
}
`},
			want: []string{"graph-derived memory in SortNeighbors"},
		},
		{
			name: "copy destination and append",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/graph"

func Stomp(g *graph.Graph, u graph.NodeID, src []graph.NodeID) {
	ns := g.OutNeighbors(u)
	copy(ns, src)
	_ = append(ns, 9)
}
`},
			want: []string{
				"graph-derived memory in Stomp",
				"graph-derived memory in Stomp",
			},
		},
		{
			name: "copy into fresh memory launders the origin",
			path: "gapbench/internal/gap",
			files: map[string]string{"good.go": `package gap

import (
	"sort"

	"gapbench/internal/graph"
)

func CopyAndSort(g *graph.Graph, u graph.NodeID) []graph.NodeID {
	ns := g.OutNeighbors(u)
	own := make([]graph.NodeID, len(ns))
	copy(own, ns)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	return own
}
`},
			want: nil,
		},
		{
			name: "reads through accessors stay clean",
			path: "gapbench/internal/gap",
			files: map[string]string{"good.go": `package gap

import "gapbench/internal/graph"

func Degree(g *graph.Graph, u graph.NodeID) int {
	total := 0
	for _, v := range g.OutNeighbors(u) {
		total += int(v)
	}
	return total
}
`},
			want: nil,
		},
	})
}

// TestGraphMutationRealKernels pins the satellite claim that the six real
// framework reproductions are mutation-free: the rule must stay silent on
// the actual internal/gap package (which reads accessor slices on every hot
// path) analyzed together with its substrate.
func TestGraphMutationRealKernels(t *testing.T) {
	gapPkg := loadRealDir(t, "internal/gap")
	if got := runRuleOn(t, GraphMutation, gapPkg, parPackage(t)); len(got) != 0 {
		t.Errorf("graph-mutation findings on real internal/gap:\n%v", got)
	}
}

// TestWriteSetFacts checks the Program-level lattice API directly:
// return-origin and store summaries for a fixture whose helper leaks graph
// memory through its return value.
func TestWriteSetFacts(t *testing.T) {
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{"f.go": `package gap

import "gapbench/internal/graph"

func leak(g *graph.Graph) []graph.NodeID {
	return g.InNeighbors(0)
}

func fresh(g *graph.Graph) []graph.NodeID {
	return make([]graph.NodeID, g.NumNodes())
}

func scribble(ns []graph.NodeID) {
	ns[0] = 1
}
`})
	prog := BuildProgram([]*Package{pkg, parPackage(t)})
	if !prog.ReturnsGraphMemory("gapbench/internal/gap.leak", 0) {
		t.Error("leak: result 0 not marked graph-derived")
	}
	if prog.ReturnsGraphMemory("gapbench/internal/gap.fresh", 0) {
		t.Error("fresh: make()d result wrongly marked graph-derived")
	}
	if stores := prog.ParamStores("gapbench/internal/gap.scribble"); len(stores[0]) == 0 {
		t.Error("scribble: store through parameter 0 not summarized")
	}
	if stores := prog.GraphStores("gapbench/internal/gap.scribble"); len(stores) != 0 {
		t.Errorf("scribble: parameter store wrongly counted as graph store: %v", stores)
	}
}

// ParamStores returns the function's stores through parameter-derived
// memory, keyed by parameter index (receiver first for methods).
func (p *Program) ParamStores(id FuncID) map[int][]StoreSite {
	if wf := p.writes[id]; wf != nil {
		return wf.paramStores
	}
	return nil
}

// ReturnsGraphMemory reports whether result index i of the function may
// alias CSR backing memory.
func (p *Program) ReturnsGraphMemory(id FuncID, i int) bool {
	wf := p.writes[id]
	return wf != nil && i < len(wf.retOrigins) && wf.retOrigins[i]&originGraph != 0
}
