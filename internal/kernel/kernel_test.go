package kernel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
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

// TestBCNormalize: scores are divided by their maximum in place, and an
// all-zero vector stays as it is.
func TestBCNormalize(t *testing.T) {
	if got := kernel.BCNormalize([]float64{2, 8, 0}); !slices.Equal(got, []float64{0.25, 1, 0}) {
		t.Errorf("BCNormalize([2 8 0]) = %v, want [0.25 1 0]", got)
	}
	if got := kernel.BCNormalize([]float64{0, 0}); !slices.Equal(got, []float64{0, 0}) {
		t.Errorf("BCNormalize([0 0]) = %v, want it unchanged", got)
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

// TestFrameworksShareAlgorithmPhases fails when a framework package restates
// a phase Table III gives several frameworks as one algorithm, and which
// lives here once: Afforest's CAS hook retry loop (Link), its pointer-jump
// loop (Compress), its 1024-sample giant-label pick (GiantLabel), and
// Brandes' dependency update (BCSweeps). NWGraph's BC keeps its own sweeps:
// they run over its iterator callbacks, the abstraction cost §V charges it.
func TestFrameworksShareAlgorithmPhases(t *testing.T) {
	exempt := map[string]bool{"nwgraph.BC": true}
	count := 0
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
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || exempt[pkg+"."+fd.Name.Name] {
					continue
				}
				for _, phase := range sharedPhases(fd.Body) {
					count++
					t.Errorf("%s: %s restates %s; call the kernel package's copy", fset.Position(phase.pos), fd.Name.Name, phase.what)
				}
			}
		}
	}
	t.Logf("%d restated phases", count)
}

type phase struct {
	pos  token.Pos
	what string
}

// sharedPhases finds the shapes of the four shared phases in a function body.
func sharedPhases(body *ast.BlockStmt) []phase {
	var found []phase
	var lcg, samples token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if isHookRetry(n) {
				found = append(found, phase{n.For, "the CAS hook retry loop (kernel.Link)"})
			}
			if isPointerJump(n) {
				found = append(found, phase{n.For, "the pointer-jump loop (kernel.Compress)"})
			}
		case *ast.BasicLit:
			switch n.Value {
			case "6364136223846793005":
				lcg = n.Pos()
			case "1024":
				samples = n.Pos()
			}
		case *ast.BinaryExpr:
			if types.ExprString(n) == "sigma[u] / sigma[v] * (1 + delta[v])" {
				found = append(found, phase{n.Pos(), "the dependency update (kernel.BCSweeps)"})
			}
		}
		return true
	})
	if lcg.IsValid() && samples.IsValid() {
		found = append(found, phase{samples, "the 1024-sample giant-label pick (kernel.GiantLabel)"})
	}
	return found
}

// isHookRetry matches `for a != b { ... atomic.CompareAndSwapInt32(...) ... }`.
func isHookRetry(loop *ast.ForStmt) bool {
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ {
		return false
	}
	cas := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && types.ExprString(call.Fun) == "atomic.CompareAndSwapInt32" {
			cas = true
		}
		return !cas
	})
	return cas
}

// isPointerJump matches `for { c2 := atomic.LoadInt32(&comp[c]); ...; c = c2 }`.
func isPointerJump(loop *ast.ForStmt) bool {
	if loop.Init != nil || loop.Cond != nil || loop.Post != nil || len(loop.Body.List) == 0 {
		return false
	}
	first, ok := loop.Body.List[0].(*ast.AssignStmt)
	if !ok || first.Tok != token.DEFINE || len(first.Lhs) != 1 || len(first.Rhs) != 1 {
		return false
	}
	load, ok := first.Rhs[0].(*ast.CallExpr)
	if !ok || types.ExprString(load.Fun) != "atomic.LoadInt32" || len(load.Args) != 1 {
		return false
	}
	addr, ok := load.Args[0].(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return false
	}
	index, ok := addr.X.(*ast.IndexExpr)
	if !ok {
		return false
	}
	jump := types.ExprString(index.Index) + " = " + types.ExprString(first.Lhs[0])
	for _, stmt := range loop.Body.List[1:] {
		if as, ok := stmt.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 &&
			types.ExprString(as.Lhs[0])+" = "+types.ExprString(as.Rhs[0]) == jump {
			return true
		}
	}
	return false
}
