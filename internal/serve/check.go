package serve

// check.go is the servecheck runtime sanitizer, mirroring grbcheck
// (internal/grb) and graphguard (internal/graph): the assertion code is
// always compiled — so gapvet's tag-unaware loader sees one consistent parse
// — but armed only when the binary is built with -tags=servecheck. Armed, a
// pool drain that finds outstanding machine leases panics naming the count:
// a leaked lease is a machine no future query can ever use, the serving-layer
// analogue of a lost goroutine. It is the invariant's only enforcement since
// PR 23 retired gapvet's per-function lease-return rule, which guarded one
// call site: this covers functions, retries, and fault paths alike.
// Armed, it also panics when a snapshot (snapshot.go) is about to answer for
// a graph epoch other than the one it was computed on.

import "fmt"

// checkEnabled is armed by the init in check_servecheck.go under
// -tags=servecheck.
var checkEnabled = false

// CheckEnabled reports whether the binary was built with the servecheck tag.
// Tests that need the armed assertion skip themselves when it is false.
func CheckEnabled() bool { return checkEnabled }

// leaseLeakCheck asserts the outstanding-lease count is zero at drain,
// panicking under -tags=servecheck. Unarmed it does nothing; the pool then
// reports the leak as an ordinary drain error.
func leaseLeakCheck(outstanding int64) {
	if checkEnabled && outstanding != 0 {
		panic(fmt.Sprintf("servecheck: %d machine lease(s) still outstanding at drain — every Acquire must reach Release or Abandon", outstanding))
	}
}

// snapshotEpochCheck asserts a snapshot is served only for the graph epoch it
// was built on, panicking under -tags=servecheck. Served graphs are immutable
// today, so the two can differ only through a bug — or through the streaming
// updates this assertion is the gate for.
func snapshotEpochCheck(snapEpoch, graphEpoch uint64) {
	if checkEnabled && snapEpoch != graphEpoch {
		panic(fmt.Sprintf("servecheck: snapshot built at graph epoch %#x served at epoch %#x — a snapshot must never outlive its epoch", snapEpoch, graphEpoch))
	}
}
