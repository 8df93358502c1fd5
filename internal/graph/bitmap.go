package graph

import "sync/atomic"

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

// Set sets bit i without synchronization.
func (b *Bitmap) Set(i int64) {
	b.words[i>>6] |= 1 << uint(i&63)
}

// SetAtomic sets bit i with a compare-and-swap loop, safe for concurrent
// writers. It reports whether this call changed the bit (i.e. the caller won
// the race), which the frontier-building loops use to claim vertices.
func (b *Bitmap) SetAtomic(i int64) bool {
	//gapvet:ignore atomic-plain-mix -- address taken once for the CAS loop; every access through w below is atomic
	w := &b.words[i>>6]
	mask := uint64(1) << uint(i&63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
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
// frontier conversions). Callers must treat it as read-only.
func (b *Bitmap) Words() []uint64 { return b.words }

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 {
	var total int64
	for _, w := range b.words {
		total += int64(popcount(w))
	}
	return total
}

// Swap exchanges the contents of b and o, which must have identical capacity.
// Direction-optimizing BFS ping-pongs two bitmaps this way.
func (b *Bitmap) Swap(o *Bitmap) {
	b.words, o.words = o.words, b.words
	b.n, o.n = o.n, b.n
}

func popcount(x uint64) int {
	// Hacker's Delight bit-twiddling population count; kept branch-free to
	// mirror the SIMD-ish inner loops the hand-tuned frameworks rely on.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}
