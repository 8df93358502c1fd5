package analysis

import (
	"fmt"
	"go/token"
	"slices"
)

// GraphMutation flags stores through memory derived from the shared
// *graph.Graph CSR arrays anywhere outside internal/graph itself. The
// accessor methods hand out slices that alias graph storage ("must not be
// modified", graph.go); the gapd north star — one immutable CSR served to
// concurrent kernel queries — turns that comment into a hard invariant, and
// this rule proves it statically over the write-set lattice (writeset.go):
// direct element stores, in-place sorts, copy destinations, appends into
// accessor sub-slices (whose capacity extends into the next vertex's
// adjacency), and call sites that pass graph-derived memory to a function
// that stores through the corresponding parameter.
//
// Package graph is whitelisted by package: its builder, relabel, and
// symmetrize code owns the arrays it writes. The graphguard runtime
// sanitizer (build tag graphguard) covers what the lattice cannot see —
// aliases escaping through struct fields or interfaces.
var GraphMutation = &Analyzer{
	Name:       "graph-mutation",
	Doc:        "no stores through CSR memory derived from *graph.Graph outside internal/graph",
	NeedsFacts: true,
	Run:        runGraphMutation,
}

func runGraphMutation(pass *Pass) {
	prog := pass.Prog
	if prog == nil || lastSegment(pass.Pkg.Path) == "graph" {
		return
	}
	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	for _, s := range prog.FuncsIn(pass.Pkg) {
		for _, st := range prog.GraphStores(s.ID) {
			var msg string
			if st.Via != "" {
				msg = fmt.Sprintf("%s passes graph-derived memory to %s, which stores through it: CSR arrays are shared and immutable — copy before mutating",
					s.Name, prog.ShortName(st.Via))
			} else {
				msg = fmt.Sprintf("%s through graph-derived memory in %s: CSR arrays are shared and immutable — copy before mutating",
					st.What, s.Name)
			}
			findings = append(findings, finding{pos: st.Pos, msg: msg})
		}
	}
	slices.SortFunc(findings, func(a, b finding) int { return int(a.pos - b.pos) })
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}
