package frontier

import (
	"fmt"

	"gapbench/internal/invariant"
	"gapbench/internal/par"
)

// The frontier sanitizer: layout conversions must preserve the set — same
// cardinality, same members. A conversion that drops or invents vertices
// degrades into wrong traversals (missed vertices look exactly like an early
// convergence), not crashes, which is why the invariant gets runtime
// assertions rather than trust.
//
// Like grb's sanitizer, the checks are compiled unconditionally and armed by
// invariant.Armed (build with -tags=check); the panic text keeps grb's
// "grbcheck" family name.

// checkFail reports a violated invariant. The invariant name is the stable,
// grep-able identifier tests assert on.
func checkFail(op, name, detail string) {
	panic(fmt.Sprintf("frontier: grbcheck: %s: invariant %q violated: %s", op, name, detail))
}

// checkConversion asserts that a layout conversion preserved the set:
//
//	conversion-count       in and out agree on Size(), and the sparse side's
//	                       list length matches its count
//	conversion-sorted      a produced sparse list is strictly increasing (no
//	                       duplicates hiding a dropped member; input lists may
//	                       arrive unsorted from a push gather)
//	conversion-membership  every member on one side is present on the other
//
// A conversion the machine's token cut short is partial and will be
// discarded, not wrong, so an interrupted exec skips the assertion.
func checkConversion(exec *par.Machine, op string, in, out *Set) {
	if !invariant.Armed() || exec.Interrupted() {
		return
	}
	if in.count != out.count {
		checkFail(op, "conversion-count",
			fmt.Sprintf("input has %d members, output has %d", in.count, out.count))
	}
	sparse, bitmap := in, out
	if in.layout == Bitmap {
		sparse, bitmap = out, in
	}
	if int64(len(sparse.list)) != sparse.count {
		checkFail(op, "conversion-count",
			fmt.Sprintf("sparse side reports %d members but stores %d", sparse.count, len(sparse.list)))
	}
	for k, v := range sparse.list {
		if sparse == out && k > 0 && sparse.list[k-1] >= v {
			checkFail(op, "conversion-sorted",
				fmt.Sprintf("list[%d] = %d does not follow list[%d] = %d", k, v, k-1, sparse.list[k-1]))
		}
		if !bitmap.bits.Get(int64(v)) {
			checkFail(op, "conversion-membership",
				fmt.Sprintf("vertex %d is on the sparse side but absent from the bitmap", v))
		}
	}
	// Equal counts + sorted-unique + list ⊆ bitmap ⇒ the sets are equal, as
	// long as the bitmap's count is honest — assert that too.
	if got := bitmap.bits.Count(); got != bitmap.count {
		checkFail(op, "conversion-count",
			fmt.Sprintf("bitmap side reports %d members but %d bits are set", bitmap.count, got))
	}
}
