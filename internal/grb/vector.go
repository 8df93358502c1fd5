package grb

import (
	"fmt"
	"math/bits"
)

// Format is a vector's internal representation. SuiteSparse keeps vectors in
// one of several opaque formats and converts between them as operations
// demand; §V-A notes the BFS "relies on three internal data structures ...
// a bitmap, a sparse list (CSR), and a full [vector]" and that "this
// conversion time is included in the total run time". The same three formats
// and the same timed conversions exist here.
type Format int

// Vector storage formats.
const (
	// Sparse stores sorted (index, value) pairs; efficient when few entries
	// are present (push frontiers).
	Sparse Format = iota
	// Bitmap stores a presence bitset plus a full-length value array;
	// efficient for membership tests (pull frontiers).
	Bitmap
	// Full stores a value at every position (PageRank scores, distances).
	Full
)

// Vector is a GraphBLAS vector of T with structural sparsity.
type Vector[T Number] struct {
	n      Index
	format Format

	// Sparse representation: parallel sorted arrays.
	ind []Index
	val []T

	// Bitmap/Full representation: dense values, presence bitset for Bitmap.
	dense   []T
	present *Bitset
}

// NewSparse returns an empty sparse vector of length n.
func NewSparse[T Number](n Index) *Vector[T] {
	return &Vector[T]{n: n, format: Sparse}
}

// NewFull returns a full vector of length n with every entry set to fill.
func NewFull[T Number](n Index, fill T) *Vector[T] {
	dense := make([]T, n)
	for i := range dense {
		dense[i] = fill
	}
	return &Vector[T]{n: n, format: Full, dense: dense}
}

// Size returns the vector length.
func (v *Vector[T]) Size() Index { return v.n }

// NVals returns the number of stored entries.
func (v *Vector[T]) NVals() Index {
	switch v.format {
	case Sparse:
		return Index(len(v.ind))
	case Bitmap:
		return v.present.Count()
	default:
		return v.n
	}
}

// SetElement stores value at index i (present afterward).
func (v *Vector[T]) SetElement(i Index, value T) {
	switch v.format {
	case Sparse:
		// Keep the sparse list sorted; this is the C API's O(log n + k)
		// insertion path, fine for the few-entry uses it gets.
		lo, hi := 0, len(v.ind)
		for lo < hi {
			mid := (lo + hi) / 2
			if v.ind[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(v.ind) && v.ind[lo] == i {
			v.val[lo] = value
			return
		}
		v.ind = append(v.ind, 0)
		v.val = append(v.val, value)
		copy(v.ind[lo+1:], v.ind[lo:])
		copy(v.val[lo+1:], v.val[lo:])
		v.ind[lo] = i
		v.val[lo] = value
	case Bitmap:
		v.dense[i] = value
		v.present.Set(i)
	default:
		v.dense[i] = value
	}
}

// Extract returns the value at index i and whether it is present.
func (v *Vector[T]) Extract(i Index) (T, bool) {
	switch v.format {
	case Sparse:
		lo, hi := 0, len(v.ind)
		for lo < hi {
			mid := (lo + hi) / 2
			if v.ind[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(v.ind) && v.ind[lo] == i {
			return v.val[lo], true
		}
		var zero T
		return zero, false
	case Bitmap:
		if v.present.Get(i) {
			return v.dense[i], true
		}
		var zero T
		return zero, false
	default:
		return v.dense[i], true
	}
}

// ToSparse converts the vector to sparse format (a full scan when coming
// from bitmap/full — deliberately timed work). The bitmap path scans the
// presence words with popcount/trailing-zero extraction, skipping empty
// words outright: on a nearly-empty frontier the scan cost is O(n/64) word
// loads instead of n per-index probes, which is what stops GraphBLAS BFS
// from paying a dense scan per round on high-diameter graphs.
func (v *Vector[T]) ToSparse() *Vector[T] {
	if v.format == Sparse {
		return v
	}
	out := &Vector[T]{n: v.n, format: Sparse}
	if v.format == Full {
		out.ind = make([]Index, v.n)
		out.val = make([]T, v.n)
		for i := Index(0); i < v.n; i++ {
			out.ind[i] = i
			out.val[i] = v.dense[i]
		}
		return out
	}
	nv := v.present.Count()
	out.ind = make([]Index, 0, nv)
	out.val = make([]T, 0, nv)
	v.present.Each(func(i Index) {
		out.ind = append(out.ind, i)
		out.val = append(out.val, v.dense[i])
	})
	return out
}

// ToBitmap converts the vector to bitmap format.
func (v *Vector[T]) ToBitmap() *Vector[T] {
	switch v.format {
	case Bitmap:
		return v
	case Full:
		present := NewBitset(v.n)
		for i := Index(0); i < v.n; i++ {
			present.Set(i)
		}
		return &Vector[T]{n: v.n, format: Bitmap, dense: v.dense, present: present}
	default:
		out := &Vector[T]{n: v.n, format: Bitmap, dense: make([]T, v.n), present: NewBitset(v.n)}
		for k, i := range v.ind {
			out.dense[i] = v.val[k]
			out.present.Set(i)
		}
		return out
	}
}

// Structure returns the presence bitset of the vector (building one for
// sparse/full vectors), for use as a mask.
func (v *Vector[T]) Structure() *Bitset {
	switch v.format {
	case Bitmap:
		return v.present
	case Full:
		b := NewBitset(v.n)
		for i := Index(0); i < v.n; i++ {
			b.Set(i)
		}
		return b
	default:
		b := NewBitset(v.n)
		for _, i := range v.ind {
			b.Set(i)
		}
		return b
	}
}

// Iterate calls fn for every stored entry in ascending index order. The
// bitmap path walks the presence words directly (zero words cost one load),
// like ToSparse.
func (v *Vector[T]) Iterate(fn func(i Index, x T)) {
	switch v.format {
	case Sparse:
		for k, i := range v.ind {
			fn(i, v.val[k])
		}
	case Bitmap:
		v.present.Each(func(i Index) { fn(i, v.dense[i]) })
	default:
		for i := Index(0); i < v.n; i++ {
			fn(i, v.dense[i])
		}
	}
}

// Dense returns the backing dense array of a Bitmap or Full vector. It
// panics for sparse vectors (convert first), like touching the wrong opaque
// representation through the C API would.
func (v *Vector[T]) Dense() []T {
	if v.format == Sparse {
		panic(fmt.Sprintf("grb: Dense() on sparse vector of size %d", v.n))
	}
	return v.dense
}

// AssignMasked copies src's stored entries into dst where the mask allows
// (the C API's GrB_assign with a mask: pi<q> = q in the paper's BFS).
func AssignMasked[T Number](dst, src *Vector[T], mask *Mask) {
	checkVector("AssignMasked dst", dst)
	checkVector("AssignMasked src", src)
	checkMask("AssignMasked mask", mask, dst.n)
	// pi<q> = q with q's own structure as the mask (the BFS accumulate) is a
	// word-level bitset union plus value copies — no per-entry format switch.
	if dst.format == Bitmap && src.format == Bitmap &&
		mask != nil && !mask.complement && mask.present == src.present {
		dw, sw := dst.present.words, src.present.words
		for wi, w := range sw {
			if w == 0 {
				continue
			}
			dw[wi] |= w
			base := Index(wi) << 6
			for ; w != 0; w &= w - 1 {
				i := base + Index(bits.TrailingZeros64(w))
				dst.dense[i] = src.dense[i]
			}
		}
		return
	}
	src.Iterate(func(i Index, x T) {
		if mask.Allow(i) {
			dst.SetElement(i, x)
		}
	})
}

// SelectRange extracts the entries of a Full vector whose value lies in
// [lo, hi) as a sparse vector — the GxB_select analogue delta-stepping uses
// to build each bucket. The scan over all n entries per call is the
// per-bucket overhead §V-B blames for GraphBLAS' Road SSSP times.
func SelectRange[T Number](v *Vector[T], lo, hi T) *Vector[T] {
	checkVector("SelectRange input", v)
	out := NewSparse[T](v.n)
	v.Iterate(func(i Index, x T) {
		if x >= lo && x < hi {
			out.ind = append(out.ind, i)
			out.val = append(out.val, x)
		}
	})
	return out
}
