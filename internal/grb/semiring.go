package grb

import "math"

// Monoid is an associative, commutative reduction operator with identity,
// optionally with a terminal (absorbing) value that permits early exit — the
// property the "any" monoid exploits in the paper's BFS ("the monoid [can]
// terminate as soon as any parent is found").
type Monoid[T Number] struct {
	Identity T
	Op       func(x, y T) T
	// Terminal, when non-nil, is a value t with Op(t, y) == t for all y, so
	// a reduction can stop the moment it appears.
	Terminal *T
	// Any marks the ANY monoid: every partial result is acceptable, so a
	// reduction may stop after the first contribution.
	Any bool
}

// Kind identifies a built-in semiring. SuiteSparse ships pre-generated,
// specialized kernels for its built-in semirings and falls back to a generic
// (operator-pointer) path for user-defined ones; the Kind tag lets the ops
// in this package do the same, which is what keeps the common algorithms
// within striking distance of the hand-written frameworks.
type Kind int

// Built-in semiring kinds with specialized kernels.
const (
	KindGeneric Kind = iota
	KindAnySecondi
	KindMinPlus
	KindPlusFirst
	KindMinFirst
)

// Semiring pairs a reduction monoid with a multiplicative operator. The
// multiply receives the vector operand's value (qval), the matrix entry's
// stored weight, and the index k of the matrix row being combined — enough
// to express FIRST/SECOND/PLUS/SECONDI and friends in the orientation used
// by VxM/MxV here:
//
//	result[j] = ⊕_k  Mult(q[k], A[k][j].weight, k)
type Semiring[T Number] struct {
	Kind   Kind
	Monoid Monoid[T]
	Mult   func(qval T, weight int32, k Index) T
}

// AnySecondi returns the any_secondi semiring over int64: the multiply
// yields the contributing row index k, and ANY keeps whichever arrives
// first. This is the BFS parent semiring from §III-A.
func AnySecondi() Semiring[int64] {
	return Semiring[int64]{
		Kind: KindAnySecondi,
		Monoid: Monoid[int64]{Identity: -1, Op: func(x, y int64) int64 {
			if x >= 0 {
				return x
			}
			return y
		}, Any: true},
		Mult: func(_ int64, _ int32, k Index) int64 { return k },
	}
}

// MinPlus returns the tropical min-plus semiring over int32 distances, the
// SSSP semiring (§III-A: "min-plus-int32").
func MinPlus() Semiring[int32] {
	inf := int32(math.MaxInt32)
	return Semiring[int32]{
		Kind: KindMinPlus,
		Monoid: Monoid[int32]{Identity: inf, Op: func(x, y int32) int32 {
			if x < y {
				return x
			}
			return y
		}, Terminal: nil},
		Mult: func(qval int32, weight int32, _ Index) int32 {
			if qval == inf {
				return inf
			}
			return qval + weight
		},
	}
}

// PlusFirst returns the plus_first semiring over float64: sum the vector
// operand's values across present matrix entries, touching only the matrix
// structure. Under this package's VxM orientation it plays the role
// LAGraph's plus_second/plus_first semirings play for PR and BC.
func PlusFirst() Semiring[float64] {
	return Semiring[float64]{
		Kind:   KindPlusFirst,
		Monoid: Monoid[float64]{Identity: 0, Op: func(x, y float64) float64 { return x + y }},
		Mult:   func(qval float64, _ int32, _ Index) float64 { return qval },
	}
}

// MinFirst returns the min_first semiring over int64: the minimum of the
// vector operand's values across present matrix entries. Under this
// package's orientation it is the hooking semiring FastSV uses
// (min_second in LAGraph's orientation).
func MinFirst() Semiring[int64] {
	return Semiring[int64]{
		Kind: KindMinFirst,
		Monoid: Monoid[int64]{Identity: math.MaxInt64, Op: func(x, y int64) int64 {
			if x < y {
				return x
			}
			return y
		}},
		Mult: func(qval int64, _ int32, _ Index) int64 { return qval },
	}
}
