package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// CancelLiveness flags kernel loops (rolePolled packages: the six framework
// reproductions and the shared frontier library) that can spin forever after
// the harness cancels a trial: a condition-only (or infinite) `for` loop whose trip
// count is data-dependent — frontier drains, worklist pulls, fixed-point
// rounds — and whose condition and body never reach Machine.Interrupted(),
// par.CancelToken.Cancelled(), or a par schedule
// (which polls the installed token itself). Such a loop makes machine
// abandonment (DESIGN.md §9) the runner's only defense.
//
// Loops are exempt when their termination does not depend on observing the
// token:
//
//   - bounded three-clause loops (Post != nil) and range loops: fixed trip
//     counts, the par chunk-loop shape;
//   - loops with no function calls at all: cursor scans, merge loops, and
//     binary searches terminate by index arithmetic;
//   - loops lexically inside a goroutine or a closure handed to a spawning
//     callee, and loops in functions only reachable on worker goroutines:
//     the region that spawned them owns cancellation, and the machine
//     drains its workers when the token fires;
//   - lock-free CAS retry loops (a sync/atomic CompareAndSwap directly in
//     the loop): every failed attempt means another worker's store landed,
//     so the trip count is bounded by contention, not by input data.
var CancelLiveness = &Analyzer{
	Name:       "cancel-liveness",
	Doc:        "data-dependent kernel loops must reach a cancellation poll or a par schedule",
	NeedsFacts: true,
	Run:        runCancelLiveness,
}

func runCancelLiveness(pass *Pass) {
	prog := pass.Prog
	if prog == nil || !hasRole(pass.Pkg.Path, rolePolled) {
		return
	}
	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sum := prog.Funcs[FuncID(obj.FullName())]
			if sum == nil {
				continue
			}
			if prog.ConcurrentFunc(sum.ID) {
				// Runs on worker goroutines; the spawning region owns the
				// token and the machine drains workers on cancellation.
				continue
			}
			walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				if loop, ok := n.(*ast.ForStmt); ok && loop.Post == nil {
					// A loop inside a goroutine or a closure handed to a
					// spawning callee is worker-loop code: the spawning
					// region owns its cancellation.
					if !prog.concurrentCtx(spawnContext(pass.Pkg, stack)) &&
						loopHasCalls(pass.Pkg, loop) &&
						!loopIsCASRetry(pass.Pkg, loop) &&
						!loopReachesCancel(prog, sum, loop) {
						findings = append(findings, finding{
							pos: loop.For,
							msg: "data-dependent loop in " + sum.Name +
								" never reaches a cancellation poll or par schedule: poll Machine.Interrupted() (opt.Exec().Interrupted() in a kernel) each iteration, or justify with //gapvet:ignore",
						})
					}
				}
				return true
			})
		}
	}
	slices.SortFunc(findings, func(a, b finding) int { return int(a.pos - b.pos) })
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// loopHasCalls reports whether the loop's condition or body contains a real
// function or method call. Loops without any — cursor scans, merge loops,
// binary searches, pointer-jumping — terminate by index arithmetic and are
// not worklist loops.
func loopHasCalls(pkg *Package, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok2 := pkg.Info.Types[call.Fun]; ok2 && tv.IsType() {
			return true // conversion, not a call
		}
		if id, ok2 := ast.Unparen(call.Fun).(*ast.Ident); ok2 {
			if obj := pkg.Info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
				return true // builtin (len, append, ...)
			}
		}
		found = true
		return false
	})
	return found
}

// loopIsCASRetry reports whether the loop performs a sync/atomic
// CompareAndSwap directly in its condition or body: the lock-free retry
// shape. Such loops make system-wide progress on every iteration — a failed
// CAS means a competing store succeeded — so their trip count is bounded by
// contention and they need no cancellation poll.
func loopIsCASRetry(pkg *Package, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a CAS in a nested literal is not this loop's retry
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
			strings.HasPrefix(fn.Name(), "CompareAndSwap") {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopReachesCancel reports whether the loop's condition or body (including
// nested literals) reaches a cancellation poll or drives a par schedule:
// a direct poll call, a callee that transitively polls, a callee that
// transitively spawns (machine regions poll the installed token), or a
// goroutine of its own.
func loopReachesCancel(prog *Program, sum *FuncSummary, loop *ast.ForStmt) bool {
	for _, c := range sum.Calls {
		if c.Pos < loop.Pos() || c.Pos >= loop.End() {
			continue
		}
		if prog.reachesCancel[c.Callee] || prog.SpawnsGo(c.Callee) {
			return true
		}
	}
	live := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			live = true
		}
		return !live
	})
	return live
}
