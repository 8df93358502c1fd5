// The compiler-assisted perf rules: joins between harvested compiler
// diagnostics (compilerfacts.go) and the dataflow Program. A compiler fact
// alone is noise — the Go compiler reports hundreds of escapes and retained
// bounds checks per build, almost all of them in setup code where they cost
// nothing. A dataflow fact alone is blind — gapvet can prove a loop runs on
// the parallel hot path of a timed region but has no idea what the compiler
// generated for it. The join is the signal: a diagnostic *at a position*
// that the Program proves lies on a timed region's parallel hot path.
//
// All four rules require both NeedsFacts and NeedsCompilerFacts, and all
// four run only under `gapvet -perf` (the harvest costs a compiler
// invocation; see cmd/gapvet).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// perfHot is the role mask of perf-lint territory: the timed packages plus
// gapvet's own "hotpath" fixture.
const perfHot = roleTimed | rolePerf

// inlineMissSlack bounds how far over budget a callee may be and still be
// reported: within slack× the budget a split fast path is a realistic fix;
// beyond it the function is structurally large and inlining is not the
// answer, so flagging every call site would only teach people to ignore the
// rule.
const inlineMissSlack = 2

// EscapeInKernel: a value escapes to heap inside a loop on the parallel hot
// path of a timed kernel package. Per-iteration heap traffic inside a timed
// region compounds over the paper's sustained trials — the allocation
// belongs in setup or per-worker state. Variable escapes caused by closure
// capture are reported by closure-capture-hot instead, so the two rules
// never double-fire on one position.
var EscapeInKernel = &Analyzer{
	Name:               "escape-in-kernel",
	Doc:                "no heap escapes inside parallel hot loops of timed kernel packages",
	NeedsFacts:         true,
	NeedsCompilerFacts: true,
	Run:                runEscapeInKernel,
}

// ClosureCaptureHot: a variable is moved to heap because a closure handed to
// a par spawner (or a goroutine) captures it by reference, and the enclosing
// function is called from a hot loop of a timed package. Every call then
// re-allocates the captured variable's cell. The fix is to allocate once in
// setup and pass a pointer in, or to capture a per-round copy.
var ClosureCaptureHot = &Analyzer{
	Name:               "closure-capture-hot",
	Doc:                "par closures must not capture variables whose heap cells are re-allocated per hot call",
	NeedsFacts:         true,
	NeedsCompilerFacts: true,
	Run:                runClosureCaptureHot,
}

// BCEMiss: the SSA pass retained a bounds check in an innermost loop on the
// parallel hot path, and the loop's own shape proves the check eliminable —
// the loop ranges over the indexed expression, or its condition compares the
// index against len() of it. The check survives only because the compiler
// re-loads the slice (typically a struct field) on every iteration; hoisting
// it into a local, or asserting `_ = s[len(s)-1]` before the loop, removes a
// branch from the hottest code in the repository. Checks the rule cannot
// prove eliminable are not reported.
var BCEMiss = &Analyzer{
	Name:               "bce-miss",
	Doc:                "no provably-eliminable bounds checks in innermost parallel kernel loops",
	NeedsFacts:         true,
	NeedsCompilerFacts: true,
	Run:                runBCEMiss,
}

// InlineMiss: a call in an innermost hot loop targets a function the
// compiler refused to inline for cost, and the overrun is small enough
// (within inlineMissSlack× the budget) that splitting a fast path under the
// budget is realistic. Call overhead in an innermost kernel loop is pure
// per-edge tax; the canonical fix is the fast-path/slow-path split (check
// the common case inline, call out for the rest).
var InlineMiss = &Analyzer{
	Name:               "inline-miss",
	Doc:                "calls in innermost parallel kernel loops should target inlinable callees",
	NeedsFacts:         true,
	NeedsCompilerFacts: true,
	Run:                runInlineMiss,
}

// enclosing returns the chain of AST nodes enclosing pos, outermost first
// (file, ..., innermost node). Empty if pos lies outside the file.
func enclosing(f *ast.File, pos token.Pos) []ast.Node {
	var path []ast.Node
	walkStack(f, func(n ast.Node, stack []ast.Node) bool {
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		path = append(append(path[:0], stack...), n)
		return true
	})
	return path
}

// eachFact visits every harvested fact of one kind in the non-test files of
// a perf-hot package, resolved onto the AST: its token position, the chain of
// nodes enclosing it, and the summary of the function that owns it.
func eachFact(pass *Pass, kind CompilerFactKind, visit func(fact CompilerFact, pos token.Pos, path []ast.Node, sum *FuncSummary)) {
	if pass.CFacts == nil || pass.Prog == nil || !hasRole(pass.Pkg.Path, perfHot) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, fact := range pass.CFacts.AtFile(f.Name) {
			if fact.Kind != kind {
				continue
			}
			pos := factPos(pass.Pkg, f, fact.Line, fact.Col)
			if pos == token.NoPos {
				continue
			}
			path := enclosing(f.AST, pos)
			if sum := summaryAt(pass, path); sum != nil {
				visit(fact, pos, path, sum)
			}
		}
	}
}

// factPos maps a compiler fact's line:col onto the file's token stream.
// Returns NoPos when the position does not exist (stale harvest, generated
// line directives).
func factPos(pkg *Package, f *File, line, col int) token.Pos {
	tf := pkg.Fset.File(f.AST.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	pos := tf.LineStart(line)
	if col > 1 {
		pos += token.Pos(col - 1)
	}
	// Clamp inside the line so an overshooting column cannot leak onto the
	// next line.
	if line < tf.LineCount() {
		if next := tf.LineStart(line + 1); pos >= next {
			pos = next - 1
		}
	} else if eof := token.Pos(tf.Base() + tf.Size()); pos >= eof {
		pos = eof - 1
	}
	return pos
}

// summaryAt resolves the function summary owning a path (the innermost
// enclosing FuncDecl; closures belong to their declaring function).
func summaryAt(pass *Pass, path []ast.Node) *FuncSummary {
	if fd := funcDeclOf(path); fd != nil {
		if obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
			return pass.Prog.Funcs[FuncID(obj.FullName())]
		}
	}
	return nil
}

// funcDeclOf returns the innermost enclosing *ast.FuncDecl on the path.
func funcDeclOf(path []ast.Node) *ast.FuncDecl {
	for i := len(path) - 1; i >= 0; i-- {
		if fd, ok := path[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// loopsIn collects the for/range statements on the path, outermost first.
func loopsIn(path []ast.Node) []ast.Node {
	var loops []ast.Node
	for _, n := range path {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
	}
	return loops
}

// isLeafLoop reports whether the loop contains no nested loop (including
// loops inside nested function literals — if the per-iteration work spawns
// its own loop, that inner loop is the hot one, not this).
func isLeafLoop(loop ast.Node) bool {
	leaf := true
	ast.Inspect(loop, func(n ast.Node) bool {
		if n == loop {
			return true
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			leaf = false
		}
		return leaf
	})
	return leaf
}

// onParallelHotPath reports whether code at the given path runs on worker
// goroutines of a timed region: the enclosing function is transitively
// reachable from a timed-package spawn (Program.concurrentTimed), or the path
// itself sits inside a goroutine or a closure handed to a spawning callee.
func onParallelHotPath(pass *Pass, sum *FuncSummary, path []ast.Node) bool {
	return pass.Prog.concurrentTimed[sum.ID] || pass.Prog.concurrentCtx(spawnContext(pass.Pkg, path))
}

// fileContaining returns the package file whose span covers pos.
func fileContaining(pkg *Package, pos token.Pos) *File {
	for _, f := range pkg.Files {
		if f.AST.FileStart <= pos && pos < f.AST.FileEnd {
			return f
		}
	}
	return nil
}

func runEscapeInKernel(pass *Pass) {
	type at struct {
		file      string
		line, col int
	}
	moved := map[at]bool{}
	if pass.CFacts != nil {
		for _, fact := range pass.CFacts.Facts {
			if fact.Kind == FactMovedToHeap {
				moved[at{fact.File, fact.Line, fact.Col}] = true
			}
		}
	}
	eachFact(pass, FactEscape, func(fact CompilerFact, pos token.Pos, path []ast.Node, sum *FuncSummary) {
		if moved[at{fact.File, fact.Line, fact.Col}] {
			return // closure-capture-hot territory
		}
		if len(loopsIn(path)) == 0 || !onParallelHotPath(pass, sum, path) || launches(pass, path, pos) {
			return
		}
		pass.Reportf(pos, "%s escapes to heap inside a parallel hot loop of %s: hoist the allocation into setup or per-worker state, or justify with //gapvet:ignore escape-in-kernel", fact.Detail, sum.Name)
	})
}

// launches reports whether the escape at pos IS the closure being spawned:
// a go statement, or a function literal launched by one or handed to a
// spawning callee. Such escapes are the region's per-worker/per-round
// bookkeeping — every spawner pays it once — not per-element churn.
func launches(pass *Pass, path []ast.Node, pos token.Pos) bool {
	isGo := func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }
	for i := len(path) - 1; i >= 0; i-- {
		if isGo(path[i]) {
			return path[i].Pos() == pos
		}
		if lit, ok := path[i].(*ast.FuncLit); ok {
			call, asArg := consumer(lit, path[:i])
			if lit.Pos() != pos || call == nil {
				return false
			}
			if !asArg {
				return i >= 2 && isGo(path[i-2]) // go func(){...}(args)
			}
			callee, ok := calleeOf(pass.Pkg, call)
			return ok && pass.Prog.SpawnsGo(callee)
		}
	}
	return false
}

func runClosureCaptureHot(pass *Pass) {
	eachFact(pass, FactMovedToHeap, func(fact CompilerFact, pos token.Pos, path []ast.Node, sum *FuncSummary) {
		fd := funcDeclOf(path)
		obj := declaredVarAt(pass.Pkg, path, pos, fact.Detail)
		if obj == nil {
			return
		}
		spawner, captured := capturedBySpawnedClosure(pass.Pkg, pass.Prog, fd, obj)
		if !captured {
			return
		}
		caller, callerPos, hot := hotCallerOf(pass, sum)
		if !hot {
			return
		}
		where := ""
		if caller != "" {
			p := pass.Pkg.Fset.Position(callerPos)
			where = fmt.Sprintf(" (called from a loop in %s at %s:%d)", caller, p.Filename, p.Line)
		}
		pass.Reportf(pos, "closure passed to %s captures %q, re-allocating its heap cell on every call of %s from a hot loop%s: allocate it once in setup and pass a pointer in, or capture a per-round copy, or justify with //gapvet:ignore closure-capture-hot", spawner, fact.Detail, sum.Name, where)
	})
}

// declaredVarAt resolves the variable declared exactly at pos with the
// given name — the target of a "moved to heap" diagnostic.
func declaredVarAt(pkg *Package, path []ast.Node, pos token.Pos, name string) *types.Var {
	if len(path) > 0 {
		if id, ok := path[len(path)-1].(*ast.Ident); ok && id.Name == name && id.Pos() == pos {
			if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
				return v
			}
		}
	}
	// The column occasionally points at the declaring keyword or a
	// containing expression; fall back to scanning the enclosing function.
	fd := funcDeclOf(path)
	if fd == nil {
		return nil
	}
	var found *types.Var
	ast.Inspect(fd, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name && id.Pos() == pos {
			found, _ = pkg.Info.Defs[id].(*types.Var)
		}
		return true
	})
	return found
}

// capturedBySpawnedClosure reports whether obj is referenced inside a
// function literal that runs on worker goroutines: a literal handed to a
// spawning callee (par.For and friends) or launched by a go statement.
// Returns the spawner's display name.
func capturedBySpawnedClosure(pkg *Package, prog *Program, fd *ast.FuncDecl, obj *types.Var) (string, bool) {
	spawner, found := "", false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		switch t := n.(type) {
		case *ast.GoStmt:
			if fl, ok := t.Call.Fun.(*ast.FuncLit); ok && usesVar(pkg, fl, obj) {
				spawner, found = "go statement", true
				return false
			}
		case *ast.CallExpr:
			callee, ok := calleeOf(pkg, t)
			if !ok || !prog.SpawnsGo(callee) {
				return true
			}
			for _, arg := range t.Args {
				if fl, ok := arg.(*ast.FuncLit); ok && usesVar(pkg, fl, obj) {
					spawner, found = prog.ShortName(callee), true
					return false
				}
			}
		}
		return true
	})
	return spawner, found
}

// usesVar reports whether the node references the variable.
func usesVar(pkg *Package, n ast.Node, obj *types.Var) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if used {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// hotCallerOf decides whether sum's per-call cost lands on a hot path: the
// function itself runs on timed-region workers, or some function of a
// perf-hot package calls it from inside a loop. Callers in the harness
// (internal/core, cmd/) do not count — a per-trial allocation is setup.
func hotCallerOf(pass *Pass, sum *FuncSummary) (caller string, pos token.Pos, hot bool) {
	if pass.Prog.concurrentTimed[sum.ID] {
		return "", token.NoPos, true
	}
	for _, id := range pass.Prog.order {
		cs := pass.Prog.Funcs[id]
		if !hasRole(cs.PkgPath, perfHot) {
			continue
		}
		for _, c := range cs.Calls {
			if c.Callee != sum.ID {
				continue
			}
			f := fileContaining(cs.Pkg, c.Pos)
			if f == nil || f.Test {
				continue
			}
			if len(loopsIn(enclosing(f.AST, c.Pos))) > 0 {
				return cs.Name, c.Pos, true
			}
		}
	}
	return "", token.NoPos, false
}

func runBCEMiss(pass *Pass) {
	eachFact(pass, FactBoundsCheck, func(_ CompilerFact, pos token.Pos, path []ast.Node, sum *FuncSummary) {
		idx := innermostIndexExpr(path)
		if idx == nil {
			return // an inlined callee's check; its own decl is the fix site
		}
		loops := loopsIn(path)
		if len(loops) == 0 {
			return
		}
		loop := loops[len(loops)-1]
		if !isLeafLoop(loop) || !onParallelHotPath(pass, sum, path) {
			return
		}
		if !loopBoundsIndex(pass.Pkg, loop, idx) {
			return // not provably eliminable; stay quiet
		}
		base := types.ExprString(idx.X)
		hint := "hoist " + base + " into a local before the loop, or assert `_ = " + base + "[len(" + base + ")-1]` ahead of it, so the compiler can eliminate the check"
		fd := funcDeclOf(path)
		if obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func); obj != nil &&
			pass.Prog.ExprAliasesGraph(pass.Pkg, obj, fd, idx.X) {
			hint += " (the slice aliases immutable CSR memory, so its length is loop-invariant)"
		}
		pass.Reportf(pos, "bounds check on %s retained in the innermost parallel loop of %s although the loop already bounds the index: %s, or justify with //gapvet:ignore bce-miss", base, sum.Name, hint)
	})
}

// innermostIndexExpr returns the innermost s[i] expression on the path, or
// nil — a bounds-check position with no IndexExpr belongs to code inlined
// from elsewhere, or to a slice expression.
func innermostIndexExpr(path []ast.Node) *ast.IndexExpr {
	for i := len(path) - 1; i >= 0; i-- {
		if idx, ok := path[i].(*ast.IndexExpr); ok {
			return idx
		}
	}
	return nil
}

// loopBoundsIndex proves the loop already constrains idx's index below
// len(idx.X): a range loop over the same expression whose key is the index
// variable, or a three-clause loop whose condition is `i < len(s)` for the
// same i and s. Under either shape the retained check is the compiler
// failing to see the bound (usually a re-loaded struct field), which the
// fix-it hint repairs.
func loopBoundsIndex(pkg *Package, loop ast.Node, idx *ast.IndexExpr) bool {
	iv, ok := ast.Unparen(idx.Index).(*ast.Ident)
	if !ok {
		return false
	}
	iobj, _ := pkg.Info.Uses[iv].(*types.Var)
	if iobj == nil {
		return false
	}
	switch l := loop.(type) {
	case *ast.RangeStmt:
		key, ok := l.Key.(*ast.Ident)
		if !ok {
			return false
		}
		kobj, _ := pkg.Info.Defs[key].(*types.Var)
		if kobj == nil {
			kobj, _ = pkg.Info.Uses[key].(*types.Var)
		}
		return kobj == iobj && sameExpr(pkg, l.X, idx.X)
	case *ast.ForStmt:
		cond, ok := l.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.LSS {
			return false
		}
		ci, ok := ast.Unparen(cond.X).(*ast.Ident)
		if !ok {
			return false
		}
		if cobj, _ := pkg.Info.Uses[ci].(*types.Var); cobj != iobj {
			return false
		}
		call, ok := ast.Unparen(cond.Y).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "len" {
			return false
		}
		if obj := pkg.Info.Uses[fn]; obj == nil || obj.Parent() != types.Universe {
			return false
		}
		return sameExpr(pkg, call.Args[0], idx.X)
	}
	return false
}

// sameExpr is structural equality over the ident/selector/index shapes that
// appear as slice bases, using resolved objects so shadowing cannot fool it.
func sameExpr(pkg *Package, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch at := a.(type) {
	case *ast.Ident:
		bt, ok := b.(*ast.Ident)
		return ok && pkg.Info.ObjectOf(at) != nil && pkg.Info.ObjectOf(at) == pkg.Info.ObjectOf(bt)
	case *ast.SelectorExpr:
		bt, ok := b.(*ast.SelectorExpr)
		return ok && pkg.Info.ObjectOf(at.Sel) != nil &&
			pkg.Info.ObjectOf(at.Sel) == pkg.Info.ObjectOf(bt.Sel) &&
			sameExpr(pkg, at.X, bt.X)
	case *ast.IndexExpr:
		bt, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(pkg, at.X, bt.X) && sameExpr(pkg, at.Index, bt.Index)
	}
	return false
}

func runInlineMiss(pass *Pass) {
	if pass.CFacts == nil || pass.Prog == nil || !hasRole(pass.Pkg.Path, perfHot) {
		return
	}
	for _, sum := range pass.Prog.FuncsIn(pass.Pkg) {
		for _, c := range sum.Calls {
			callee := pass.Prog.Funcs[c.Callee]
			if callee == nil || callee.Pos == token.NoPos {
				continue
			}
			dp := callee.Pkg.Fset.Position(callee.Pos)
			fact, ok := pass.CFacts.CannotInlineAt(dp.Filename, dp.Line)
			if !ok || fact.Cost == 0 || fact.Cost > fact.Budget*inlineMissSlack {
				continue
			}
			f := fileContaining(pass.Pkg, c.Pos)
			if f == nil || f.Test {
				continue
			}
			path := enclosing(f.AST, c.Pos)
			if !directCallAt(pass.Pkg, path, c) {
				continue // a func value being passed, not a call
			}
			loops := loopsIn(path)
			if len(loops) == 0 || !isLeafLoop(loops[len(loops)-1]) {
				continue
			}
			sumHere := summaryAt(pass, path)
			if sumHere == nil || !onParallelHotPath(pass, sumHere, path) {
				continue
			}
			pass.Reportf(c.Pos, "call to %s in the innermost parallel loop of %s cannot be inlined (cost %d exceeds budget %d): split a fast path that fits the budget and call out for the slow case, or justify with //gapvet:ignore inline-miss", callee.Name, sumHere.Name, fact.Cost, fact.Budget)
		}
	}
}

// directCallAt confirms the call-site position is an actual CallExpr
// invoking the recorded callee; summaries also record func values passed as
// arguments, which are not calls.
func directCallAt(pkg *Package, path []ast.Node, c CallSite) bool {
	for i := len(path) - 1; i >= 0; i-- {
		call, ok := path[i].(*ast.CallExpr)
		if !ok || call.Pos() != c.Pos {
			continue
		}
		if callee, ok := calleeOf(pkg, call); ok && callee == c.Callee {
			return true
		}
	}
	return false
}
