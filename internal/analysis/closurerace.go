package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParClosureRace flags plain writes to captured outer variables inside
// closures handed to the internal/par loop helpers. Every such closure runs
// concurrently on many goroutines, so an unsynchronized assignment to a
// variable declared outside the closure is a data race (the classic
// `sum += x` / `changed = true` accumulation bug). Writes *through* captured
// slices or pointers at worker-owned indices (`dist[i] = ...`) are the
// intended usage and are not flagged.
//
// Two escape hatches keep the rule precise rather than noisy:
//
//   - closures whose body takes a lock (any `x.Lock()` call) are assumed to
//     guard their shared writes and are skipped entirely;
//   - sync/atomic usage never triggers the rule, because atomic updates are
//     method/function calls, not assignments.
var ParClosureRace = &Analyzer{
	Name: "par-closure-race",
	Doc:  "no unsynchronized writes to captured variables inside par.For / par.ForDynamic / ... closures",
	Run:  runParClosureRace,
}

func runParClosureRace(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		walkStack(f.AST, func(n ast.Node, stack []ast.Node) bool {
			// A literal handed to anything internal/par declares — a
			// package-level shim (par.For, par.ForDynamic, ...) or a method
			// (exec.ForDynamic, opt.Exec().ReduceInt64, h.Scatter): it runs
			// on the machine's pool goroutines either way. The rule stays
			// type-based rather than asking the Program which callees spawn,
			// so it works on packages loaded without internal/par.
			if fl, ok := n.(*ast.FuncLit); ok {
				if call, asArg := consumer(fl, stack); asArg {
					if fn := moduleFunc(pkg, call.Fun); fn != nil && fn.Pkg().Path() == pkg.Module+"/internal/par" {
						checkParClosure(pass, fn.Name(), fl)
					}
				}
			}
			return true
		})
	}
}

// checkParClosure inspects one closure passed to a par helper.
func checkParClosure(pass *Pass, helper string, fl *ast.FuncLit) {
	if takesLock(fl.Body) {
		// Mutex-guarded closures synchronize their own shared writes; trust
		// the lock rather than guessing which statements it covers.
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // := declares closure-local variables
			}
			for _, lhs := range st.Lhs {
				reportCapturedWrite(pass, helper, fl, lhs)
			}
		case *ast.IncDecStmt:
			reportCapturedWrite(pass, helper, fl, st.X)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				reportCapturedWrite(pass, helper, fl, st.Key)
				reportCapturedWrite(pass, helper, fl, st.Value)
			}
		}
		return true
	})
}

// reportCapturedWrite flags lhs when it is a plain identifier bound to a
// variable declared outside the closure.
func reportCapturedWrite(pass *Pass, helper string, fl *ast.FuncLit, lhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		// Writes through index/selector/star expressions address memory the
		// kernel partitions among workers; proving those racy needs alias
		// analysis far beyond this tool, so they are deliberately exempt.
		return
	}
	obj, ok := pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
		return // declared inside the closure: worker-local, safe
	}
	pass.Reportf(id.Pos(), "write to captured variable %q inside par.%s closure is a data race: use sync/atomic, or accumulate per-worker partials and reduce", id.Name, helper)
}

// takesLock reports whether the body contains any x.Lock() call.
func takesLock(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
				found = true
			}
		}
		return !found
	})
	return found
}
