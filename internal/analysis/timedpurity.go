package analysis

import "strings"

// TimedRegionPurity flags I/O in the packages whose non-test code runs
// inside the benchmark's timed regions (roleTimed: the six framework
// reproductions registered with internal/core plus the substrates their
// kernels execute on). The paper's numbers assume kernels compute and nothing
// else; printing belongs in cmd/ and internal/report. What counts as I/O is
// the ioCall catalogue (facts.go).
//
// The rule is transitive: besides direct I/O sites, it reports call sites
// in kernel packages whose callee *reaches* I/O through any call chain the
// module-wide call graph can resolve — a kernel calling a helper in
// internal/graph that spills to os.Stderr is flagged at the kernel's call
// site, naming the chain's endpoint. Chains that stay inside timed
// packages are reported once, at the I/O (or at the first call that leaves
// the timed set), not at every caller along the chain.
var TimedRegionPurity = &Analyzer{
	Name:       "timed-region-purity",
	Doc:        "kernel packages must not reach I/O (directly or transitively) inside timed regions",
	NeedsFacts: true,
	Run:        runTimedRegionPurity,
}

func runTimedRegionPurity(pass *Pass) {
	prog := pass.Prog
	if prog == nil || !hasRole(pass.Pkg.Path, roleTimed) {
		return
	}
	seg := lastSegment(pass.Pkg.Path)
	for _, s := range prog.FuncsIn(pass.Pkg) {
		for _, io := range s.IO {
			if strings.HasPrefix(io.What, "builtin ") {
				pass.Reportf(io.Pos, "%s writes to stderr inside timed kernel package %s: I/O belongs in the harness", io.What, seg)
			} else {
				pass.Reportf(io.Pos, "call to %s inside timed kernel package %s: I/O belongs in the harness", io.What, seg)
			}
		}
		// Callees inside timed packages are skipped: the violation is (or
		// will be) reported where the chain leaves the timed set, or at the
		// I/O site itself.
		for _, c := range s.Calls {
			callee := prog.Funcs[c.Callee]
			if callee == nil || hasRole(callee.PkgPath, roleTimed) {
				continue
			}
			if io := prog.transIO[c.Callee]; io != nil {
				at := pass.Pkg.Fset.Position(io.Pos)
				pass.Reportf(c.Pos,
					"call to %s reaches %s (%s:%d) inside timed kernel package %s: I/O belongs in the harness",
					prog.ShortName(c.Callee), io.What, at.Filename, at.Line, seg)
			}
		}
	}
}
