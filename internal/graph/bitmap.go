package graph

import (
	"math/bits"
	"sync/atomic"
)

// Bitmap is a fixed-size bit set over vertex ids with both plain and atomic
// update paths. The GAP reference uses bitmaps for the dense ("pull") side of
// direction-optimizing BFS and for Brandes successor tracking; several of the
// framework reproductions share this type.
type Bitmap struct {
	words []uint64
	n     int64
}

// NewBitmap returns a cleared bitmap capable of holding n bits.
func NewBitmap(n int64) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bitmap capacity in bits.
func (b *Bitmap) Len() int64 { return b.n }

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Set sets bit i without synchronization: the kernels call it in serial
// phases (filling a pull frontier), never while SetAtomic writers are
// running.
func (b *Bitmap) Set(i int64) {
	//gapvet:ignore atomic-plain-mix -- plain write path is documented phase-separated, like Get's plain read
	b.words[i>>6] |= 1 << uint(i&63)
}

// SetAtomic sets bit i with one atomic OR, safe for concurrent writers whose
// bits share a word. It reports whether this call changed the bit (i.e. the
// caller won the race), which the frontier-building loops use to claim
// vertices.
func (b *Bitmap) SetAtomic(i int64) bool {
	mask := uint64(1) << uint(i&63)
	return atomic.OrUint64(&b.words[i>>6], mask)&mask == 0
}

// Clear clears bit i without synchronization.
func (b *Bitmap) Clear(i int64) {
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports bit i without synchronization: the kernels call it only on
// bitmaps that are read-only for the duration of the phase (pull-phase
// frontiers), never while SetAtomic writers are running.
func (b *Bitmap) Get(i int64) bool {
	//gapvet:ignore atomic-plain-mix -- plain read path is documented phase-separated: no reader runs while SetAtomic writers do
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Words exposes the backing word array, least-significant bit first, for
// word-granular scans (popcount prefix sums, trailing-zero extraction in the
// frontier conversions). A caller that writes through it owns the bitmap for
// the duration, as a caller of Set does.
func (b *Bitmap) Words() []uint64 { return b.words }

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 {
	var total int64
	for _, w := range b.words {
		total += int64(bits.OnesCount64(w))
	}
	return total
}

// Each calls fn for every set bit in ascending order, scanning the words with
// trailing-zero extraction: an empty word costs one load, so a nearly-empty
// bitmap costs O(n/64 + set bits), not n probes.
func (b *Bitmap) Each(fn func(i int64)) {
	for wi, w := range b.words {
		base := int64(wi) << 6
		for ; w != 0; w &= w - 1 {
			fn(base + int64(bits.TrailingZeros64(w)))
		}
	}
}

// Swap exchanges the contents of b and o, which must have identical capacity.
// Direction-optimizing BFS ping-pongs two bitmaps this way.
func (b *Bitmap) Swap(o *Bitmap) {
	b.words, o.words = o.words, b.words
	b.n, o.n = o.n, b.n
}
