package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SwallowedPanic flags recover() calls whose panic value is discarded: a
// bare `recover()`, `_ = recover()`, a value only compared against nil, or a
// bound variable never recorded. The fault model (DESIGN.md §9) sanctions
// exactly two isolation sites — the par region slot capture and the core
// trial sandbox — and both *record* the panic value (message, trimmed
// stack, per-trial status). Any recover that merely eats the value turns a
// reproducible kernel crash into a silent wrong-or-missing result, the
// precise failure the paper's cross-validation methodology exists to
// prevent. To swallow on purpose, rethrow or record the value — or justify
// with //gapvet:ignore swallowed-panic.
var SwallowedPanic = &Analyzer{
	Name: "swallowed-panic",
	Doc:  "recover() must record or rethrow the panic value, not discard it",
	Run:  runSwallowedPanic,
}

func runSwallowedPanic(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		if f.Test {
			continue // test helpers assert through testing.T; out of scope
		}
		walkStack(f.AST, func(n ast.Node, stack []ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBuiltinRecover(pkg, call) {
				checkRecoverUse(pass, f.AST, stack[len(stack)-1], call)
			}
			return true
		})
	}
}

// isBuiltinRecover reports whether call invokes the predeclared recover.
func isBuiltinRecover(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "recover" {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}

// checkRecoverUse classifies the recover call's context (its syntactic
// parent) and reports when the panic value never escapes a nil test.
func checkRecoverUse(pass *Pass, file *ast.File, parent ast.Node, call *ast.CallExpr) {
	pkg := pass.Pkg
	switch parent := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "recover() discards the panic value: record it (message/status/stack) or rethrow with panic(v), or justify with //gapvet:ignore swallowed-panic")
	case *ast.BinaryExpr:
		// recover() != nil: the value is tested, then gone.
		if parent.Op == token.EQL || parent.Op == token.NEQ {
			pass.Reportf(call.Pos(), "recover() result is only compared against nil and then discarded: bind it and record or rethrow, or justify with //gapvet:ignore swallowed-panic")
		}
	case *ast.AssignStmt:
		obj := recoverTarget(pkg, parent, call)
		if obj == nil {
			// `_ = recover()` (or an untracked destructuring): swallowed.
			pass.Reportf(call.Pos(), "recover() result assigned to _: record the panic value or rethrow, or justify with //gapvet:ignore swallowed-panic")
			return
		}
		if !valueRecorded(pkg, file, obj) {
			pass.Reportf(call.Pos(), "recover() result %q is only nil-checked, never recorded or rethrown: pass it to a call, assignment, return, or panic, or justify with //gapvet:ignore swallowed-panic", obj.Name())
		}
	case *ast.ValueSpec:
		// var p = recover()
		for i, v := range parent.Values {
			if v != call || i >= len(parent.Names) {
				continue
			}
			obj := pkg.Info.Defs[parent.Names[i]]
			if obj == nil || parent.Names[i].Name == "_" {
				pass.Reportf(call.Pos(), "recover() result assigned to _: record the panic value or rethrow, or justify with //gapvet:ignore swallowed-panic")
				continue
			}
			if !valueRecorded(pkg, file, obj) {
				pass.Reportf(call.Pos(), "recover() result %q is only nil-checked, never recorded or rethrown: pass it to a call, assignment, return, or panic, or justify with //gapvet:ignore swallowed-panic", obj.Name())
			}
		}
	}
	// Any other direct context — call argument, return statement, panic(...)
	// operand — already records or rethrows the value.
}

// recoverTarget returns the object bound to the recover call in assign, or
// nil when the target is blank/untracked.
func recoverTarget(pkg *Package, assign *ast.AssignStmt, call *ast.CallExpr) types.Object {
	for i, rhs := range assign.Rhs {
		if rhs != call || i >= len(assign.Lhs) {
			continue
		}
		id, ok := assign.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[id] // p = recover() onto an existing variable
	}
	return nil
}

// valueRecorded reports whether any use of obj escapes a nil comparison: an
// appearance as a call argument, panic operand, return value, assignment
// source, send, composite-literal element, or anything else that carries the
// value onward counts as recording it.
func valueRecorded(pkg *Package, file *ast.File, obj types.Object) bool {
	recorded := false
	walkStack(file, func(n ast.Node, stack []ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			// A nil test is not a recording use. Anything else — call
			// argument (including panic(p) and fmt.Sprint(p)), assignment,
			// return, send, composite literal, index, selector — carries
			// the value somewhere.
			test, ok := stack[len(stack)-1].(*ast.BinaryExpr)
			if !ok || (test.Op != token.EQL && test.Op != token.NEQ) {
				recorded = true
			}
		}
		return !recorded
	})
	return recorded
}
