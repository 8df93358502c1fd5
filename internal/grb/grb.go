// Package grb reproduces the SuiteSparse:GraphBLAS substrate the paper
// evaluates: sparse matrices and vectors over semirings, with masked
// matrix-vector products, element-wise operations, selection, and reduction.
// Graph algorithms built on it live in the sibling package lagraph, mirroring
// the GraphBLAS/LAGraph split ("GraphBLAS does not include any graph
// algorithms directly; these are in algorithms that use GraphBLAS").
//
// Two structural costs the paper attributes to GraphBLAS are reproduced
// deliberately:
//
//   - 64-bit indices everywhere (GraphBLAS is designed for 2^60-node graphs,
//     so it "must use 64-bit integers" while other frameworks use 32-bit).
//   - Bulk, unfused operations: every primitive materializes its result, and
//     vectors are converted between sparse, bitmap, and full formats with the
//     conversion time inside the timed region, as §V-A describes.
package grb

import (
	"math/bits"
	"sync/atomic"
)

// Index is a GraphBLAS vertex/matrix index. Deliberately 64-bit; see the
// package comment.
type Index = int64

// Number constrains the value types the semiring operations run over.
type Number interface {
	~int32 | ~int64 | ~float64
}

// Bitset tracks structural presence of vector entries in bitmap format.
type Bitset struct {
	words []uint64
	n     Index
}

// NewBitset returns a cleared bitset for n entries.
func NewBitset(n Index) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Set marks entry i present. Not safe for concurrent writers that may share
// a word; parallel producers use SetAtomic.
func (b *Bitset) Set(i Index) { b.words[i>>6] |= 1 << uint(i&63) }

// SetAtomic marks entry i present with an atomic OR, safe for concurrent
// writers whose indices may share a 64-bit word (adjacent rows at worker
// range boundaries).
func (b *Bitset) SetAtomic(i Index) {
	atomic.OrUint64(&b.words[i>>6], 1<<uint(i&63))
}

// Clear marks entry i absent.
func (b *Bitset) Clear(i Index) { b.words[i>>6] &^= 1 << uint(i&63) }

// Get reports whether entry i is present. The ops read *input* bitsets with
// Get (read-only for the duration of the operation) while writing *output*
// bitsets with SetAtomic; the two are distinct objects even though field
// identity unifies them.
func (b *Bitset) Get(i Index) bool {
	//gapvet:ignore atomic-plain-mix -- input bitsets are read-only during an op; SetAtomic targets the distinct output bitset
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Len returns the bitset capacity.
func (b *Bitset) Len() Index { return b.n }

// Count returns the number of present entries.
func (b *Bitset) Count() Index {
	var total Index
	for _, w := range b.words {
		total += Index(bits.OnesCount64(w))
	}
	return total
}

// Each calls fn for every present entry in ascending order, scanning the
// presence words with trailing-zero extraction: an empty word costs one load,
// so a nearly-empty bitset costs O(n/64 + entries), not n probes.
func (b *Bitset) Each(fn func(i Index)) {
	for wi, w := range b.words {
		base := Index(wi) << 6
		for ; w != 0; w &= w - 1 {
			fn(base + Index(bits.TrailingZeros64(w)))
		}
	}
}

// Reset clears all entries.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Mask is a structural mask for an operation's output, like the C API's
// GrB_Descriptor mask settings: writes to position i are allowed iff
// Allow(i). A nil *Mask allows every position.
type Mask struct {
	present    *Bitset
	complement bool
}

// NewMask wraps a presence bitset; complement inverts it (the C API's
// GrB_COMP, written <!m> in the paper's pseudocode).
func NewMask(present *Bitset, complement bool) *Mask {
	return &Mask{present: present, complement: complement}
}

// Allow reports whether the mask permits writing position i.
func (m *Mask) Allow(i Index) bool {
	if m == nil {
		return true
	}
	return m.present.Get(i) != m.complement
}
