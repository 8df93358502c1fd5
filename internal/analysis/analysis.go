// Package analysis is a small, stdlib-only static-analysis engine for this
// repository, built directly on go/parser, go/ast, and go/types (no
// golang.org/x/tools dependency). It exists to machine-check the invariants
// the paper's methodology rests on: the six framework reproductions stay
// honestly isolated from each other, the shared internal/par substrate is
// used race-free, GraphBLAS keeps its mandated 64-bit indices, timed kernel
// code stays free of I/O, and the harness does not drop errors.
//
// The cmd/gapvet CLI drives this package; see DESIGN.md's "Static analysis"
// section for the rule catalogue.
package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// pkgRole is a set of roles a package plays in the paper's methodology; the
// rules scope themselves by role, never by a package list of their own.
type pkgRole uint8

const (
	// roleFramework: one of the six framework reproductions. The comparison
	// is only valid while these stay independent of each other
	// (framework-isolation).
	roleFramework pkgRole = 1 << iota
	// roleTimed: non-test code runs inside the benchmark's timed regions —
	// the harness times f.BFS(...) et al. with time.Now() around the call, so
	// I/O or per-element allocation here lands inside the measurement
	// (timed-region-purity, alloc-in-timed-region, the -perf rules).
	roleTimed
	// roleIndex64: GraphBLAS-side code whose indices the GAP spec mandates to
	// be 64-bit (index-width).
	roleIndex64
	// rolePolled: data-dependent loops must observe cancellation
	// (cancel-liveness). par is excluded — its schedules poll the installed
	// token themselves and are exactly what makes a kernel loop live — and so
	// is grb, whose operations run under lagraph's polled round loops.
	rolePolled
	// rolePerf: hot loops are perf-lint territory without being timed; only
	// gapvet's own fixture carries it alone.
	rolePerf

	roleKernel = roleFramework | roleTimed | rolePolled
)

// pkgRoles is the one registry of package roles, keyed by the last element
// of the import path.
var pkgRoles = map[string]pkgRole{
	"gap":      roleKernel,
	"galois":   roleKernel,
	"graphit":  roleKernel,
	"gkc":      roleKernel,
	"nwgraph":  roleKernel,
	"lagraph":  roleKernel | roleIndex64,
	"grb":      roleTimed | roleIndex64,
	"par":      roleTimed,
	"frontier": roleTimed | rolePolled,
	"kernel":   roleTimed | rolePolled,
	// gapvet fixture packages (cmd/gapvet/testdata/src).
	"spin":    rolePolled,
	"hotpath": rolePerf,
}

// hasRole reports whether the package at the import path plays any of the
// roles.
func hasRole(path string, roles pkgRole) bool {
	return pkgRoles[lastSegment(path)]&roles != 0
}

// Diagnostic is one finding: a position, the rule that fired, and a message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical "file:line: [rule] message"
// form emitted by gapvet.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one named rule.
type Analyzer struct {
	// Name is the rule identifier used in output and //gapvet:ignore
	// comments.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	// NeedsFacts marks interprocedural rules: Run builds the module-wide
	// Program (call graph + function summaries) once per invocation and
	// hands it to the pass when any enabled analyzer sets this.
	NeedsFacts bool
	// NeedsCompilerFacts marks the perf rules that join harvested compiler
	// diagnostics against the Program. These analyzers are skipped — not
	// failed — when Run is given no harvest, so the default gapvet invocation
	// stays a pure AST/type pass with no compiler dependency.
	NeedsCompilerFacts bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the module-wide fact database (nil unless the analyzer set
	// NeedsFacts). It spans every package of the Run call, so rules can
	// follow call chains across package boundaries.
	Prog *Program
	// CFacts is the harvested compiler-diagnostics table (nil unless the
	// run supplied one and the analyzer set NeedsCompilerFacts).
	CFacts *CompilerFacts
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule set in canonical order: the syntactic and
// dataflow rules, then the four compiler-assisted -perf rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FrameworkIsolation,
		ParClosureRace,
		IndexWidth,
		TimedRegionPurity,
		UncheckedError,
		AtomicPlainMix,
		LockOrder,
		AllocInTimedRegion,
		SwallowedPanic,
		GraphMutation,
		ArenaEscape,
		CancelLiveness,
		EscapeInKernel,
		ClosureCaptureHot,
		BCEMiss,
		InlineMiss,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the given analyzers to the packages, honoring
// //gapvet:ignore suppressions, and returns the surviving diagnostics
// sorted by position. When any analyzer needs interprocedural facts, the
// module-wide Program is built once over all packages and shared. cf is the
// harvested compiler-diagnostics table for the perf rules; with cf == nil,
// analyzers needing compiler facts are skipped entirely — they neither run
// nor force the Program build. The error reports //gapvet:ignore directives
// that name no rule.
func Run(pkgs []*Package, analyzers []*Analyzer, cf *CompilerFacts) ([]Diagnostic, error) {
	var active []*Analyzer
	for _, a := range analyzers {
		if a.NeedsCompilerFacts && cf == nil {
			continue
		}
		active = append(active, a)
	}
	var prog *Program
	for _, a := range active {
		if a.NeedsFacts {
			prog = BuildProgram(pkgs)
			break
		}
	}
	var diags []Diagnostic
	var bad []error
	for _, pkg := range pkgs {
		ignores, err := collectIgnores(pkg)
		bad = append(bad, err)
		sink := func(d Diagnostic) {
			if !ignores.matches(d) {
				diags = append(diags, d)
			}
		}
		for _, a := range active {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: sink}
			if a.NeedsCompilerFacts {
				pass.CFacts = cf
			}
			a.Run(pass)
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Column, b.Pos.Column); c != 0 {
			return c
		}
		return cmp.Compare(a.Rule, b.Rule)
	})
	return diags, errors.Join(bad...)
}

// ignoreSet records //gapvet:ignore directives per file and line. A
// directive suppresses matching diagnostics on its own line and on the line
// immediately following it (so it can sit on the preceding line).
type ignoreSet map[string]map[int][]string // file -> line -> rules ("" = all)

// collectIgnores scans all comments of a package for ignore directives of
// the form:
//
//	//gapvet:ignore                      suppress every rule here
//	//gapvet:ignore rule1,rule2          suppress the listed rules
//	//gapvet:ignore rule -- free text    trailing justification is encouraged
//
// A directive naming a rule that does not exist is an error, not a directive
// that silently matches nothing: deleting or renaming a rule flushes its
// suppressions.
func collectIgnores(pkg *Package) (ignoreSet, error) {
	set := ignoreSet{}
	var bad []error
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//gapvet:ignore")
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //gapvet:ignoreXXX is not a directive
				}
				// Strip the optional "-- reason" tail.
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = rest[:i]
				}
				pos := pkg.Fset.Position(c.Pos())
				var rules []string
				for _, r := range strings.Split(rest, ",") {
					if r = strings.TrimSpace(r); r == "" {
						continue
					}
					if ByName(r) == nil {
						bad = append(bad, fmt.Errorf("%s:%d: //gapvet:ignore names unknown rule %q", pos.Filename, pos.Line, r))
					}
					rules = append(rules, r)
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int][]string{}
				}
				if len(rules) == 0 {
					rules = []string{""}
				}
				set[pos.Filename][pos.Line] = append(set[pos.Filename][pos.Line], rules...)
			}
		}
	}
	return set, errors.Join(bad...)
}

// matches reports whether the diagnostic is suppressed by a directive on
// its own line or the preceding line.
func (s ignoreSet) matches(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, rule := range lines[line] {
			if rule == "" || rule == d.Rule {
				return true
			}
		}
	}
	return false
}

// lastSegment returns the final path element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
