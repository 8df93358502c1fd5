package analysis

import (
	"go/ast"
	"go/types"
)

// IndexWidth flags 32-bit integers used as indices in the GraphBLAS-side
// packages (roleIndex64: internal/grb and internal/lagraph): any
// slice/array/map index expression whose index operand is typed int32 or
// uint32 (int32 *values* — edge weights, distances — are fine; it is indices
// that must be grb.Index). The GAP spec (and the package doc of internal/grb)
// mandates 64-bit indices there: GraphBLAS "must use 64-bit integers" because
// it is designed for 2^60-node graphs, and the paper charges that width to
// its timings. A 32-bit index sneaking in would quietly change the cost model
// being reproduced — and overflow on production-scale graphs. Test files are
// exempt.
var IndexWidth = &Analyzer{
	Name: "index-width",
	Doc:  "grb/lagraph indices must be 64-bit (grb.Index), never int32/uint32",
	Run:  runIndexWidth,
}

func runIndexWidth(pass *Pass) {
	pkg := pass.Pkg
	if !hasRole(pkg.Path, roleIndex64) {
		return
	}
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[idx.Index]
			if !ok || tv.Type == nil || !tv.IsValue() {
				// A non-value index operand means this IndexExpr is really a
				// generic instantiation like Vector[int32] — a type argument,
				// not an index.
				return true
			}
			basic, ok := tv.Type.Underlying().(*types.Basic)
			if !ok {
				return true // generic instantiation, map with non-int key, ...
			}
			if basic.Kind() == types.Int32 || basic.Kind() == types.Uint32 {
				pass.Reportf(idx.Index.Pos(), "32-bit value of type %s used as an index: the GAP spec requires 64-bit indices here (use grb.Index)", tv.Type)
			}
			return true
		})
	}
}
