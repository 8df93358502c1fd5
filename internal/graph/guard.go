package graph

import (
	"fmt"

	"gapbench/internal/invariant"
)

// graphguard is the runtime complement to gapvet's graph-mutation rule: the
// static write-set lattice (internal/analysis/writeset.go) proves the absence
// of stores through accessor-derived slices, but cannot see aliases that
// escape through struct fields, interfaces, or unsafe code. Building with
// -tags=check closes that gap dynamically — Seal records a checksum of
// every CSR array, and core.Runner re-verifies the seal after each trial, so
// any mutation of shared graph memory (a kernel bug, or chaos's deliberate
// CorruptGraph fault) is caught at the trial boundary and named.
//
// The gate is the tree's one, invariant.Armed, so the default build carries
// no checksum cost and no behavioural difference.

// sealNames names the checksummed arrays, in seal-slot order. CheckSeal
// reports the first mismatching name so a failure identifies which array a
// rogue store hit.
var sealNames = [...]string{"outIndex", "outNeigh", "inIndex", "inNeigh", "outWeight", "inWeight"}

// Seal records a checksum of each CSR array. A no-op unless the build is
// armed (-tags=check). Safe to call more than once; the last seal wins, so a
// legitimate in-package rebuild (relabel, symmetrize) just re-seals.
//
// Graphs that carry format-v2 header checksums — mmap-loaded ones above all
// — seal from the header in O(1) instead of re-hashing every array, which
// for a mapped multi-gigabyte graph also avoids faulting the whole file in
// just to seal it. The header sums were computed with the same checksum
// functions at save time, so CheckSeal compares like with like.
func (g *Graph) Seal() {
	if !invariant.Armed() || g == nil {
		return
	}
	if s := g.hdrSums; s != nil {
		sums := [len(sealNames)]uint64{
			s[secOutIndex], s[secOutNeigh],
			s[secInIndex], s[secInNeigh],
			s[secOutWeight], s[secInWeight],
		}
		if !g.directed {
			// The in-views alias the out-views; the header stores the
			// in-sections as absent.
			sums[2], sums[3], sums[5] = s[secOutIndex], s[secOutNeigh], s[secOutWeight]
		}
		g.seal = &sums
		return
	}
	g.seal = &[len(sealNames)]uint64{
		checksum64(g.outIndex),
		checksum32(g.outNeigh),
		checksum64(g.inIndex),
		checksum32(g.inNeigh),
		checksum32(g.outWeight),
		checksum32(g.inWeight),
	}
}

// CheckSeal re-computes the checksums and returns an error naming the first
// array that no longer matches its seal. Returns nil when the build is unarmed,
// the graph is nil or unsealed, or all arrays verify.
func (g *Graph) CheckSeal() error {
	if !invariant.Armed() || g == nil || g.seal == nil {
		return nil
	}
	now := [len(sealNames)]uint64{
		checksum64(g.outIndex),
		checksum32(g.outNeigh),
		checksum64(g.inIndex),
		checksum32(g.inNeigh),
		checksum32(g.outWeight),
		checksum32(g.inWeight),
	}
	for i, want := range *g.seal {
		if now[i] != want {
			return fmt.Errorf("graphguard: CSR array %s modified since Seal (checksum %#x, sealed %#x)", sealNames[i], now[i], want)
		}
	}
	return nil
}

// MustCheckSeal panics if CheckSeal fails. The core runner calls it inside
// the trial sandbox, so the panic surfaces as a Panicked trial record naming
// the corrupted array rather than as a wrong benchmark result.
func (g *Graph) MustCheckSeal() {
	if err := g.CheckSeal(); err != nil {
		panic(err)
	}
}

// checksum64 mixes a []int64 with a splitmix64-style finalizer per element.
// Order-dependent (position is mixed in), so swapped elements are caught,
// not just changed sums.
func checksum64(s []int64) uint64 {
	h := uint64(len(s)) + 1
	for i, v := range s {
		h = mix64(h ^ mix64(uint64(v)+uint64(i)*0x9e3779b97f4a7c15))
	}
	return h
}

// checksum32 is checksum64 for the int32-based arrays (NodeID, Weight).
func checksum32(s []int32) uint64 {
	h := uint64(len(s)) + 2
	for i, v := range s {
		h = mix64(h ^ mix64(uint64(uint32(v))+uint64(i)*0x9e3779b97f4a7c15))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
