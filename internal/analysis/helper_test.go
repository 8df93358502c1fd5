package analysis

import (
	"go/parser"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// LoadSource loads an in-memory package fixture: a map of file name to Go
// source, type-checked under the given import path. Fixture files may import
// real packages of the module (resolved against the loader's root).
func (l *Loader) LoadSource(importPath string, sources map[string]string) (*Package, error) {
	var names []string
	for name := range sources {
		names = append(names, name)
	}
	slices.Sort(names)
	var files []*File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, sources[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, &File{AST: f, Name: name, Test: strings.HasSuffix(name, "_test.go")})
	}
	return l.check(importPath, "", files)
}

// sharedLoader amortizes standard-library type-checking across all tests in
// this package: the source importer checks fmt/sync/... once per process.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

// testLoader returns the shared loader rooted at the module root.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot("")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("creating loader: %v", loaderErr)
	}
	return loader
}

// loadFixture type-checks an in-memory fixture package.
func loadFixture(t *testing.T, importPath string, files map[string]string) *Package {
	t.Helper()
	pkg, err := testLoader(t).LoadSource(importPath, files)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	return pkg
}

// parOnce caches the real internal/par package: the dataflow rules learn
// "par.For spawns goroutines" from its summaries, so spawn-aware fixtures
// must be analyzed alongside it.
var (
	parOnce sync.Once
	parPkg  *Package
	parErr  error
)

func parPackage(t *testing.T) *Package {
	t.Helper()
	l := testLoader(t)
	parOnce.Do(func() {
		parPkg, parErr = l.LoadDir(filepath.Join(l.Root, "internal", "par"))
	})
	if parErr != nil {
		t.Fatalf("loading internal/par: %v", parErr)
	}
	return parPkg
}

// runRule applies one analyzer to one fixture and renders the diagnostics.
// The real internal/par rides along in the Program (it is finding-free, so
// it contributes summaries, never diagnostics).
func runRule(t *testing.T, a *Analyzer, pkg *Package) []string {
	t.Helper()
	return runRuleOn(t, a, pkg, parPackage(t))
}

// runRuleOn applies one analyzer across several packages at once, so tests
// can exercise cross-package transitive facts (an in-memory fixture calling
// into the real on-disk internal/graph, say). Diagnostics are concatenated
// in the packages' order.
func runRuleOn(t *testing.T, a *Analyzer, pkgs ...*Package) []string {
	t.Helper()
	return render(t, a, nil, pkgs)
}

// render runs one analyzer (with an optional compiler-facts table) and
// renders its diagnostics.
func render(t *testing.T, a *Analyzer, cf *CompilerFacts, pkgs []*Package) []string {
	t.Helper()
	diags, err := Run(pkgs, []*Analyzer{a}, cf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var out []string
	for _, d := range diags {
		out = append(out, d.String())
	}
	return out
}

// loadRealDir loads one of the module's real on-disk packages (path relative
// to the module root, e.g. "internal/graph").
func loadRealDir(t *testing.T, rel string) *Package {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
	return pkg
}

// ruleCase is one table entry: a fixture and the diagnostics it must (or
// must not) produce.
type ruleCase struct {
	name  string
	path  string            // fixture import path
	files map[string]string // file name -> source
	want  []string          // substrings that must each match some diagnostic
}

// checkRule runs the analyzer over a table of fixtures.
func checkRule(t *testing.T, a *Analyzer, cases []ruleCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runRule(t, a, loadFixture(t, tc.path, tc.files))
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %v\nwant: %v", len(got), len(tc.want), got, tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(got[i], want) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, got[i], want)
				}
			}
		})
	}
}
