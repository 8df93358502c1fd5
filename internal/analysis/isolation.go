package analysis

import (
	"strconv"
	"strings"
)

// isolationAllowed is the substrate a framework package may build on:
// the shared graph representation, the parallel-for substrate, the kernel
// interface/option types, the GraphBLAS layer (for lagraph), the shared
// frontier library and schedule tuner, and core.
var isolationAllowed = map[string]bool{
	"graph":    true,
	"par":      true,
	"kernel":   true,
	"grb":      true,
	"core":     true,
	"frontier": true,
	"tune":     true,
}

// isolationAllowedTest extends the allowance for test files, which drive the
// shared conformance suite and oracles.
var isolationAllowedTest = map[string]bool{
	"generate": true,
	"verify":   true,
	"testutil": true,
	"ldbc":     true,
}

// FrameworkIsolation enforces the paper's validity argument at the import
// graph: no framework package (roleFramework) may import another framework
// package — a shared trick leaking from one framework into another would
// silently change the abstraction being measured — and framework code may
// only build on the shared substrate packages.
var FrameworkIsolation = &Analyzer{
	Name: "framework-isolation",
	Doc:  "framework packages must not import each other; only the shared substrate (graph, par, kernel, grb, frontier, tune, core) is allowed",
	Run:  runFrameworkIsolation,
}

func runFrameworkIsolation(pass *Pass) {
	pkg := pass.Pkg
	own := lastSegment(pkg.Path)
	if !hasRole(pkg.Path, roleFramework) {
		return
	}
	prefix := pkg.Module + "/"
	for _, f := range pkg.Files {
		for _, imp := range f.AST.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(path, prefix) {
				continue // external / stdlib imports are not this rule's business
			}
			seg := lastSegment(path)
			switch {
			case seg == own:
				// A package's external test files importing the package
				// itself is the normal Go testing layout.
			case hasRole(path, roleFramework):
				pass.Reportf(imp.Pos(), "framework package %s imports framework package %s: frameworks must stay isolated so the comparison measures abstractions, not shared code", own, seg)
			case isolationAllowed[seg]:
				// Shared substrate, fine everywhere.
			case f.Test && isolationAllowedTest[seg]:
				// Conformance-suite plumbing, fine in tests.
			default:
				pass.Reportf(imp.Pos(), "framework package %s imports %s, which is not part of the shared substrate (graph, par, kernel, grb, frontier, tune, core)", own, path)
			}
		}
	}
}
