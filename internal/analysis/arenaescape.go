package analysis

// arenaescape.go: with arena-backed storage (internal/graph/arena.go) every
// accessor slice is a view into one shared block, and for mmap-backed graphs
// Graph.Close unmaps that block — a retained view does not dangle politely, it
// faults (or, with the Close-side poisoning, panics). This rule proves the
// common lifetime mistakes statically, over the same origin lattice the
// graph-mutation rule uses (writeset.go):
//
//   - a graph-derived value used after a direct Graph.Close call in the same
//     function (position order stands in for control flow, the lattice's usual
//     trade — a use lexically before the Close is assumed to execute first);
//   - a return of graph-derived memory from a function that closes the graph
//     (including via defer: the returned view outlives the unmap by
//     construction);
//   - a store of graph-derived memory into a struct field or package-level
//     variable in a closing function — retention the runtime can no longer
//     see.
//
// What it deliberately does not track mirrors writeset.go: views retained in
// one function and closed in another, and flows through interfaces. Those are
// graphguard's job — the unmap itself poisons the views, so the escapees
// crash loudly in tests built with -tags=graphguard.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscape flags graph-derived memory that outlives Graph.Close.
var ArenaEscape = &Analyzer{
	Name:       "arena-escape",
	Doc:        "no graph-derived slice may be used, returned, or retained past Graph.Close (the arena is unmapped)",
	NeedsFacts: true,
	Run:        runArenaEscape,
}

// graphCloseMethods names the graph-package methods that release arena
// storage.
var graphCloseMethods = map[string]bool{"Close": true}

func runArenaEscape(pass *Pass) {
	prog := pass.Prog
	if prog == nil || lastSegment(pass.Pkg.Path) == "graph" {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			checkArenaEscape(pass, prog, fn, fd)
		}
	}
}

func checkArenaEscape(pass *Pass, prog *Program, fn *types.Func, fd *ast.FuncDecl) {
	// First pass: find the Close calls. closePos is the earliest direct
	// (non-deferred) call; deferred Closes fire at return, so they gate the
	// return/retention checks but establish no in-body position.
	closePos := token.NoPos
	closes := false
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isGraphMethodCall(pass.Pkg, call, graphCloseMethods) {
			closes = true
			if !underDefer(stack) && (closePos == token.NoPos || call.Pos() < closePos) {
				closePos = call.Pos()
			}
		}
		return true
	})
	if !closes {
		return
	}
	w := prog.newOriginWalker(pass.Pkg, fn, fd)
	if w == nil {
		return
	}

	// Only reference-typed values escape: an element read copies the int out
	// of the arena, a slice or pointer keeps pointing into it.
	graphDerived := func(e ast.Expr) bool {
		if w.exprOrigin(e)&originGraph == 0 {
			return false
		}
		tv, ok := pass.Pkg.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Pointer:
			return true
		}
		return false
	}
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch t := n.(type) {
		case *ast.Ident:
			// A read of a graph-derived local after the arena was released.
			if closePos != token.NoPos && t.Pos() > closePos && !isAssignTarget(t, stack) {
				if v, ok := pass.Pkg.Info.Uses[t].(*types.Var); ok && w.locals[v]&originGraph != 0 {
					pass.Reportf(t.Pos(), "%q is a graph-derived view used after Graph.Close in %s: the arena may be unmapped — copy what you need before closing",
						t.Name, fn.Name())
				}
			}
		case *ast.CallExpr:
			if closePos != token.NoPos && t.Pos() > closePos && isGraphAccessorCall(pass.Pkg, t) {
				pass.Reportf(t.Pos(), "graph accessor call after Graph.Close in %s: the arena may be unmapped — read before closing",
					fn.Name())
			}
		case *ast.ReturnStmt:
			if underFuncLit(stack) {
				break
			}
			for _, r := range t.Results {
				if graphDerived(r) && (closePos == token.NoPos || t.Pos() > closePos) {
					pass.Reportf(t.Pos(), "%s returns graph-derived memory but closes the graph: the caller's view outlives the unmap — return a copy",
						fn.Name())
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range t.Lhs {
				if i >= len(t.Rhs) || !graphDerived(t.Rhs[i]) {
					continue
				}
				if what := retentionTarget(pass.Pkg, lhs); what != "" {
					pass.Reportf(t.Pos(), "%s stores graph-derived memory into a %s but closes the graph: the retained view outlives the unmap — store a copy",
						fn.Name(), what)
				}
			}
		}
		return true
	})
}

// isAssignTarget reports whether id is the immediate left-hand side of the
// enclosing assignment — being overwritten, not read.
func isAssignTarget(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == id {
			return true
		}
	}
	return false
}

// retentionTarget classifies an assignment destination that outlives the
// function: a struct field or a package-level variable. Everything else
// (locals, indexed locals) returns "".
func retentionTarget(pkg *Package, lhs ast.Expr) string {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if v, ok := pkg.Info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
			return "struct field"
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[t].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
			return "package-level variable"
		}
	}
	return ""
}
