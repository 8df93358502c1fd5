// Package invariant is the tree's one runtime-assertion gate. Every invariant
// assertion — grb's operand and direction checks, frontier's conversion
// checks, graph's CSR seal, serve's lease, epoch and reach checks, kernel's
// PageRank mass check — is compiled in always and armed only in a binary
// built with -tags=check:
//
//	go test -tags=check -short ./...
//
// The gate is a var flipped by an init in armed_check.go rather than twin
// build-tagged implementations, so every package parses identically with and
// without the tag and gapvet's tag-unaware loader sees one view. Unarmed,
// each assertion returns at its first branch, a test of a false bool. It is
// the tree's one build tag: the fault injector (internal/chaos) needs none,
// because only tests link it.
package invariant

// armed is set by the init in armed_check.go under -tags=check.
var armed = false

// Armed reports whether the binary was built with the check tag. Tests that
// need an armed assertion skip themselves when it is false.
func Armed() bool { return armed }
