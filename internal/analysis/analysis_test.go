package analysis

import (
	"strings"
	"testing"
)

// TestSuppression covers the //gapvet:ignore directive forms.
func TestSuppression(t *testing.T) {
	src := map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Sums(xs []int64) (int64, int64, int64, int64) {
	var a, b, c, d int64
	par.Default().For(len(xs), 0, func(i int) {
		a += xs[i] //gapvet:ignore par-closure-race -- demo of a justified suppression
	})
	par.Default().For(len(xs), 0, func(i int) {
		//gapvet:ignore par-closure-race
		b += xs[i]
	})
	par.Default().For(len(xs), 0, func(i int) {
		c += xs[i] //gapvet:ignore
	})
	par.Default().For(len(xs), 0, func(i int) {
		d += xs[i] //gapvet:ignore framework-isolation,index-width
	})
	return a, b, c, d
}
`}
	got := runRule(t, ParClosureRace, loadFixture(t, "gapbench/internal/demo", src))
	// a: same-line rule suppression; b: previous-line; c: blanket — all
	// suppressed. d: directive lists other rules, so it still fires.
	if len(got) != 1 || !strings.Contains(got[0], `"d"`) {
		t.Fatalf("want exactly the %q diagnostic to survive, got %v", "d", got)
	}
}

// TestSuppressionDoesNotLeakAcrossLines makes sure a directive only covers
// its own and the following line.
func TestSuppressionDoesNotLeakAcrossLines(t *testing.T) {
	src := map[string]string{"bad.go": `package demo

import "gapbench/internal/par"

func Sum(xs []int64) int64 {
	var total int64
	//gapvet:ignore par-closure-race

	par.Default().For(len(xs), 0, func(i int) {
		total += xs[i]
	})
	return total
}
`}
	got := runRule(t, ParClosureRace, loadFixture(t, "gapbench/internal/demo", src))
	if len(got) != 1 {
		t.Fatalf("directive two lines above must not suppress, got %v", got)
	}
}

// TestDiagnosticOrdering checks the canonical file/line sort of Run.
func TestDiagnosticOrdering(t *testing.T) {
	pkg := loadFixture(t, "gapbench/internal/gap", map[string]string{
		"b.go": `package gap

import "fmt"

func two() { fmt.Println(2) }
`,
		"a.go": `package gap

import "fmt"

func one() {
	fmt.Println(1)
	fmt.Println(1)
}
`,
	})
	got := runRule(t, TimedRegionPurity, pkg)
	want := []string{"a.go:6:", "a.go:7:", "b.go:5:"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("diagnostic %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestAnalyzerRegistry locks the rule catalogue: names are unique, findable
// by name, and documented.
func TestAnalyzerRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("no-such-rule") != nil {
		t.Error("ByName of unknown rule must be nil")
	}
	want := []string{
		"framework-isolation", "par-closure-race", "index-width",
		"timed-region-purity", "unchecked-error",
		"atomic-plain-mix", "lock-order", "alloc-in-timed-region",
		"swallowed-panic", "graph-mutation", "arena-escape", "cancel-liveness",
		"escape-in-kernel", "closure-capture-hot", "bce-miss", "inline-miss",
	}
	if len(seen) != len(want) {
		t.Fatalf("expected %d analyzers, got %d", len(want), len(seen))
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("missing analyzer %q", name)
		}
	}
}

// TestUnknownIgnoreRule: a directive naming a rule that does not exist is an
// error carrying file:line and the name — not a suppression that silently
// matches nothing — so a deleted or renamed rule takes its directives along.
func TestUnknownIgnoreRule(t *testing.T) {
	pkg := loadFixture(t, "gapbench/internal/demo", map[string]string{"bad.go": `package demo

func F() {} //gapvet:ignore index-width,lease-return -- names a rule deleted in PR 23
`})
	_, err := Run([]*Package{pkg}, Analyzers(), nil)
	if err == nil || !strings.Contains(err.Error(), "bad.go:3:") || !strings.Contains(err.Error(), `"lease-return"`) {
		t.Fatalf("want an error naming bad.go:3 and the unknown rule, got %v", err)
	}
	if strings.Contains(err.Error(), "index-width") {
		t.Errorf("the live rule in the same directive must not be reported: %v", err)
	}
}
