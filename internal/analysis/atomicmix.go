package analysis

import (
	"cmp"
	"go/token"
	"slices"
)

// AtomicPlainMix flags shared state that is accessed through sync/atomic on
// one code path and by plain load/store on another path that can run
// concurrently — across function boundaries. An atomic access anywhere is
// taken as the author's declaration that the variable is shared between
// goroutines; under the Go memory model every *concurrent* access to it
// must then also be atomic, or the program has a data race even if the
// racing loads "only read".
//
// The rule is interprocedural on both sides of the mix: the atomic access
// and the plain access may be in different functions (even different
// packages, for struct fields), and "can run concurrently" is computed from
// the call graph — an access is concurrent when it is lexically inside a
// `go` statement or a closure handed to a goroutine-spawning helper
// (par.For and friends, or anything that transitively spawns), or when its
// enclosing function is reachable from such a context.
//
// Plain accesses in purely sequential positions (initialization loops,
// post-barrier reductions) do not fire: phase-separated kernels that
// initialize plainly and then CAS in parallel are the GAP idiom, not a bug.
// Deliberately mixed dual-path APIs (Bitmap.Set vs Bitmap.SetAtomic) should
// suppress with //gapvet:ignore and a comment explaining the phase
// discipline callers must follow.
var AtomicPlainMix = &Analyzer{
	Name:       "atomic-plain-mix",
	Doc:        "state accessed via sync/atomic must not also be accessed plainly on concurrent paths",
	NeedsFacts: true,
	Run:        runAtomicPlainMix,
}

func runAtomicPlainMix(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	// First atomic site per key, module-wide.
	atomicSite := map[VarKey]token.Pos{}
	for _, id := range prog.order {
		for _, a := range prog.Funcs[id].Accesses {
			if a.Kind != AtomicAccess {
				continue
			}
			if pos, ok := atomicSite[a.Key]; !ok || a.Pos < pos {
				atomicSite[a.Key] = a.Pos
			}
		}
	}
	if len(atomicSite) == 0 {
		return
	}
	// One report per (function, key): the first plain access that can run
	// concurrently, in functions of the package under analysis.
	type finding struct {
		pos     token.Pos
		display string
		key     VarKey
	}
	var findings []finding
	for _, s := range prog.FuncsIn(pass.Pkg) {
		reported := map[VarKey]bool{}
		for _, a := range s.Accesses {
			if a.Kind == AtomicAccess || reported[a.Key] {
				continue
			}
			if _, mixed := atomicSite[a.Key]; !mixed {
				continue
			}
			if !prog.concurrentCtx(a.ctx) && !prog.concurrent[s.ID] {
				continue
			}
			reported[a.Key] = true
			findings = append(findings, finding{pos: a.Pos, display: a.Display, key: a.Key})
		}
	}
	slices.SortFunc(findings, func(a, b finding) int { return cmp.Compare(a.pos, b.pos) })
	for _, f := range findings {
		at := pass.Pkg.Fset.Position(atomicSite[f.key])
		pass.Reportf(f.pos,
			"%q is accessed through sync/atomic (e.g. %s:%d) but accessed plainly here on a concurrent path: use atomic access, or document the phase separation with //gapvet:ignore atomic-plain-mix",
			f.display, at.Filename, at.Line)
	}
}
