package analysis

import (
	"cmp"
	"go/token"
	"slices"
)

// LockOrder builds a mutex acquisition graph from the function summaries —
// an edge A -> B means "some execution path acquires B while holding A",
// either directly inside one function or by calling (transitively) into a
// function that acquires B — and reports every pair of locks acquired in
// both orders. Two goroutines interleaving the two orders deadlock, the
// classic ABBA hang; Pollard & Norris (arXiv:1704.02003) trace several
// cross-framework discrepancies to exactly this class of latent concurrency
// bug, which no amount of benchmarking catches until it fires.
//
// Lock identity is the engine's VarKey scheme plus, for a mutex that is a
// struct field, the owning struct type (mutexOp): registry.mu and entry.mu
// are two locks, but two *objects* of one type share a key. A deliberate
// lock hierarchy over same-typed locks (parent-then-child) should suppress
// with //gapvet:ignore and a comment naming the ordering rule. Re-acquiring
// the *same* key while held is not reported: with object-merged keys that is
// usually two different mutexes of the same type, not a self-deadlock.
var LockOrder = &Analyzer{
	Name:       "lock-order",
	Doc:        "mutexes must be acquired in a consistent global order (ABBA deadlock detection)",
	NeedsFacts: true,
	Run:        runLockOrder,
}

func runLockOrder(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	edges := prog.AllLockEdges()
	if len(edges) == 0 {
		return
	}
	// First edge per ordered pair.
	type pair struct{ from, to VarKey }
	first := map[pair]LockEdge{}
	for _, e := range edges {
		p := pair{e.From, e.To}
		if _, ok := first[p]; !ok {
			first[p] = e
		}
	}
	// Report each two-lock inversion once, anchored at the earlier edge (so
	// exactly one package reports it and //gapvet:ignore has a stable home).
	var pairs []pair
	for p := range first {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	seen := map[pair]bool{}
	for _, p := range pairs {
		rev := pair{p.to, p.from}
		back, ok := first[rev]
		if !ok || seen[p] || seen[rev] {
			continue
		}
		seen[p], seen[rev] = true, true
		fwd := first[p]
		anchor, other := fwd, back
		if other.Pos < anchor.Pos {
			anchor, other = other, anchor
		}
		if !pass.ownsPos(anchor.Pos) {
			continue
		}
		op := pass.Pkg.Fset.Position(other.Pos)
		pass.Reportf(anchor.Pos,
			"lock ordering inversion: %q is acquired while holding %q here, but %s:%d acquires them in the opposite order — two goroutines interleaving these paths deadlock",
			displayLock(anchor.ToDisplay, anchor.To), displayLock(anchor.FromDisplay, anchor.From), op.Filename, op.Line)
	}
}

// displayLock falls back to the raw key when no display name was recorded.
func displayLock(display string, key VarKey) string {
	if display != "" {
		return display
	}
	return string(key)
}

// ownsPos reports whether the position belongs to one of this package's
// files, so module-wide findings are reported exactly once.
func (p *Pass) ownsPos(pos token.Pos) bool {
	name := p.Pkg.Fset.Position(pos).Filename
	for _, f := range p.Pkg.Files {
		if f.Name == name {
			return true
		}
	}
	return false
}
