package analysis

import (
	"cmp"
	"go/token"
	"slices"
	"strconv"
	"strings"
)

// AllocInTimedRegion flags heap allocation on the *parallel hot path* of
// timed kernel packages: a make/new/append call or closure creation that
// executes inside a goroutine-spawned region (a closure handed to a
// *par.Machine schedule such as exec.For or exec.ForDynamic, a `go`
// statement, or any function the call graph can reach from
// one). The harness times f.BFS(...) wall-clock, so a per-edge or
// per-vertex allocation inside a parallel loop is pure measured overhead —
// and allocator contention under 64 workers distorts exactly the
// cross-framework comparison the paper is making.
//
// Setup and amortized allocation is whitelisted four ways:
//
//   - anything outside spawned regions (the kernel entry allocating its
//     result arrays, frontiers, bitmaps before/between parallel phases) is
//     never flagged — GAP deliberately times those, and every framework
//     pays them alike;
//   - closures handed to exec.ForWorker run once per worker, so their
//     allocations are per-worker setup (GKC local buffers, Galois chunk
//     seeds) and are exempt;
//   - func literals directly passed to a call or invoked in place
//     (exec.For(n, w, func...), go func(){}()) are created once per phase or
//     spawn, not per element — only *stored* closures can churn on a hot
//     path;
//   - append is amortized growth: the make that created the buffer is the
//     finding, mirroring the transitive fixpoint's make/new-only rule.
//
// Per-chunk buffers (the GAP QueueBuffer idiom: one make per 64-vertex
// chunk) are genuine findings that a reviewer must either hoist to
// per-worker state or justify with //gapvet:ignore naming the amortization
// argument.
var AllocInTimedRegion = &Analyzer{
	Name:       "alloc-in-timed-region",
	Doc:        "no allocation on parallel hot paths of timed kernel packages",
	NeedsFacts: true,
	Run:        runAllocInTimedRegion,
}

func runAllocInTimedRegion(pass *Pass) {
	prog := pass.Prog
	if prog == nil || !hasRole(pass.Pkg.Path, roleTimed) {
		return
	}
	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	for _, s := range prog.FuncsIn(pass.Pkg) {
		// Timed-origin concurrency only: the harness's per-trial sandbox
		// goroutine (internal/core) wraps whole kernel invocations for
		// fault isolation and must not drag every kernel entry point onto
		// the "hot path" — those setup allocations are deliberately timed
		// and paid alike by every framework.
		funcConcurrent := prog.concurrentTimed[s.ID]
		// Direct allocation sites.
		for _, a := range s.Allocs {
			if a.What == "append" {
				continue // amortized growth: the buffer's make is the finding
			}
			if a.What == "func literal" && a.immediate {
				continue // per-phase/per-spawn closure, not per-element churn
			}
			lexical := prog.timedSpawnCtx(s, a.ctx)
			if !lexical && !funcConcurrent {
				continue
			}
			if lexical && innermostIsForWorker(a.ctx) {
				continue // per-worker setup
			}
			findings = append(findings, finding{a.Pos,
				"allocation (" + a.What + ") on the parallel hot path of timed kernel package " +
					lastSegment(pass.Pkg.Path) + ": hoist to setup or per-worker state (par.ForWorker), or justify with //gapvet:ignore alloc-in-timed-region"})
		}
		// Calls from spawned regions into out-of-package functions that
		// (transitively) allocate. Same-package callees report at their own
		// allocation sites via the funcConcurrent path above.
		for _, c := range s.Calls {
			lexical := prog.timedSpawnCtx(s, c.ctx)
			if !lexical && !funcConcurrent {
				continue
			}
			if lexical && innermostIsForWorker(c.ctx) {
				continue
			}
			callee := prog.Funcs[c.Callee]
			if callee == nil || callee.PkgPath == pass.Pkg.Path {
				continue
			}
			if hasRole(callee.PkgPath, roleTimed) {
				continue // the callee's own package reports it
			}
			alloc := prog.transAlloc[c.Callee]
			if alloc == nil {
				continue
			}
			at := pass.Pkg.Fset.Position(alloc.Pos)
			findings = append(findings, finding{c.Pos,
				"call to " + prog.ShortName(c.Callee) + " allocates (" + alloc.What + " at " + at.Filename + ":" + strconv.Itoa(at.Line) +
					") on the parallel hot path of timed kernel package " + lastSegment(pass.Pkg.Path) +
					": hoist the allocation to setup, or justify with //gapvet:ignore alloc-in-timed-region"})
		}
	}
	slices.SortFunc(findings, func(a, b finding) int { return cmp.Compare(a.pos, b.pos) })
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// innermostIsForWorker reports whether the nearest enclosing spawner is
// (*par.Machine).ForWorker, whose closure runs once per worker: setup, not
// hot path.
func innermostIsForWorker(ctx spawnCtx) bool {
	if len(ctx.spawners) == 0 {
		return false
	}
	return strings.HasSuffix(string(ctx.spawners[len(ctx.spawners)-1]), "par.Machine).ForWorker")
}
