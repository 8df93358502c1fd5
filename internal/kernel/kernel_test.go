package kernel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

func TestModeString(t *testing.T) {
	if kernel.Baseline.String() != "Baseline" || kernel.Optimized.String() != "Optimized" {
		t.Fatal("mode strings wrong")
	}
}

func TestOptionsUndirected(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without a prebuilt view the kernel derives one.
	u := (kernel.Options{}).Undirected(g)
	if u.Directed() {
		t.Fatal("derived view is directed")
	}
	// With a prebuilt view it is used verbatim.
	view := g.Undirected()
	if got := (kernel.Options{UndirectedView: view}).Undirected(g); got != view {
		t.Fatal("prebuilt view not used")
	}
}

func TestConstantsMatchGAPSpec(t *testing.T) {
	if kernel.PRDamping != 0.85 {
		t.Errorf("damping = %v", kernel.PRDamping)
	}
	if kernel.BCSources != 4 {
		t.Errorf("BC sources = %d", kernel.BCSources)
	}
	if kernel.Inf <= 0 {
		t.Error("Inf not positive")
	}
}

// TestTCViewAndSSSPDelta pins the two GAP rules every framework reads through
// Options: which graph a triangle count walks (and whether its relabel is
// paid inside the trial, on the trial's machine), and the SSSP bucket width.
// Road and Urand are not degree-skewed; Twitter is.
func TestTCViewAndSSSPDelta(t *testing.T) {
	undirected := map[string]*graph.Graph{}
	for _, name := range []string{generate.NameRoad, generate.NameTwitter, generate.NameUrand} {
		g, err := generate.ByName(name, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		undirected[name] = g.Undirected()
	}
	prebuilt, _ := graph.DegreeRelabel(par.Default(), undirected[generate.NameTwitter])
	m := par.NewMachine(2)
	defer m.Close()

	const (
		same    = "the undirected view"
		relabel = "a relabel timed on Exec()"
		untimed = "the prebuilt view"
	)
	for _, tc := range []struct {
		name      string
		mode      kernel.Mode
		graph     string
		relabeled *graph.Graph
		want      string
	}{
		{"Baseline/skewed", kernel.Baseline, generate.NameTwitter, nil, relabel},
		{"Baseline/skewed ignores a prebuilt view", kernel.Baseline, generate.NameTwitter, prebuilt, relabel},
		{"Baseline/Road", kernel.Baseline, generate.NameRoad, nil, same},
		{"Baseline/Urand", kernel.Baseline, generate.NameUrand, nil, same},
		{"Optimized/prebuilt", kernel.Optimized, generate.NameTwitter, prebuilt, untimed},
		{"Optimized/skewed without a prebuilt view", kernel.Optimized, generate.NameTwitter, nil, relabel},
		{"Optimized/Road without a prebuilt view", kernel.Optimized, generate.NameRoad, nil, same},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := undirected[tc.graph]
			opt := kernel.Options{Mode: tc.mode, UndirectedView: u, RelabeledView: tc.relabeled, Machine: m}
			m.ResetStats()
			got := opt.TCView(u)
			regions := m.Stats().Regions
			switch tc.want {
			case same:
				if got != u || regions != 0 {
					t.Errorf("got %p after %d regions, want the undirected view %p after none", got, regions, u)
				}
			case untimed:
				if got != tc.relabeled || regions != 0 {
					t.Errorf("got %p after %d regions, want the prebuilt view %p after none", got, regions, tc.relabeled)
				}
			case relabel:
				if got == u || got == prebuilt || got.Layout() != graph.LayoutDegree {
					t.Errorf("got %p (layout %v), want a new degree-layout graph", got, got.Layout())
				}
				if regions == 0 {
					t.Error("the relabel launched no region on opt.Exec()")
				}
			}
		})
	}

	for _, tc := range []struct{ delta, want kernel.Dist }{
		{0, kernel.DefaultDelta}, {-3, kernel.DefaultDelta}, {1, 1}, {64, 64},
	} {
		if got := (kernel.Options{Delta: tc.delta}).SSSPDelta(); got != tc.want {
			t.Errorf("Delta %d: SSSPDelta() = %d, want %d", tc.delta, got, tc.want)
		}
	}
	if kernel.DefaultDelta != 16 {
		t.Errorf("DefaultDelta = %d, want the GAP reference's 16", kernel.DefaultDelta)
	}
}

// TestFrameworksReadTheRulesThroughOptions fails when a framework package
// restates a rule TCView or SSSPDelta holds: it may not decide or run the TC
// relabel itself (graph.SkewedDegrees, graph.DegreeRelabel) nor read
// Options.Delta past SSSPDelta's default.
func TestFrameworksReadTheRulesThroughOptions(t *testing.T) {
	for _, pkg := range []string{"gap", "galois", "graphit", "gkc", "nwgraph", "lagraph"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", pkg, err)
		}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkgName := ""
				if id, ok := sel.X.(*ast.Ident); ok {
					pkgName = id.Name
				}
				switch {
				case pkgName == "graph" && (sel.Sel.Name == "DegreeRelabel" || sel.Sel.Name == "SkewedDegrees"):
					t.Errorf("%s: calls graph.%s; read the TC view through Options.TCView", fset.Position(sel.Pos()), sel.Sel.Name)
				case sel.Sel.Name == "Delta":
					t.Errorf("%s: reads .Delta; read the SSSP bucket width through Options.SSSPDelta", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}
