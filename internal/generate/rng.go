// Package generate synthesizes the five GAP benchmark graphs.
//
// The paper's datasets (Road of USA, Twitter follow links, a .sk web crawl,
// Graph500 Kronecker, uniform random) total several billion edges and are not
// available offline, so this package builds seeded synthetic stand-ins with
// the same topological signatures at reduced scale: degree distribution
// (bounded / power-law / normal), directedness, diameter class, and — for the
// web graph — locality and clustering. The paper's own workload analysis says
// topology dominates workload behaviour, which is what makes this
// substitution meaningful; DESIGN.md records it.
package generate

import "math"

// rng is a splitmix64 pseudo-random generator. A local implementation keeps
// graph generation bit-reproducible regardless of math/rand changes between
// Go releases, which matters because benchmark results are keyed to the graph.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) as the 64-bit draw modulo n. n must be
// positive. The modulo bias is below n/2^64, negligible at these ranges
// (< 2^32) for workload generation.
func (r *rng) intn(n int64) int64 {
	return int64(r.next() % uint64(n))
}

// draw53 returns the top 53 bits of a draw: the integer that float64v
// scales to [0, 1).
func (r *rng) draw53() uint64 { return r.next() >> 11 }

// float64v returns a uniform value in [0, 1).
func (r *rng) float64v() float64 {
	return float64(r.draw53()) / (1 << 53)
}

// weight returns a GAP-spec edge weight, uniform in [1, 255].
func (r *rng) weight() int32 {
	return int32(r.intn(255)) + 1
}

// cut turns a probability into an integer threshold on draw53. float64v is
// float64(k)/2^53 for k = draw53(), and both steps are exact: a 53-bit
// integer converts exactly and dividing by a power of two is exact. So for
// t in [0, 1], float64v() < t holds exactly when k < ceil(t·2^53), and the
// multiply by 2^53 is exact too. A generator compares draws against cuts
// and never a float draw against a constant.
func cut(t float64) uint64 { return uint64(math.Ceil(t * (1 << 53))) }

// chance reports whether a fresh draw falls below c; with c = cut(t) it is
// exactly float64v() < t and consumes the same one draw.
func (r *rng) chance(c uint64) bool { return r.draw53() < c }

// atLeast is [k ≥ c] as 0 or 1 without a branch: for k, c < 2^63 the wrapped
// difference k−c has its top bit set exactly when k < c.
func atLeast(k, c uint64) uint64 { return 1 ^ (k-c)>>63 }

// quadrants holds the RMAT descent's three cuts: of a, of the float64 sum
// a+b and of the float64 sum (a+b)+c, so each integer compare decides
// exactly as float64v() < that value.
type quadrants struct{ a, ab, abc uint64 }

func newQuadrants(a, b, c float64) quadrants {
	ab := a + b
	return quadrants{a: cut(a), ab: cut(ab), abc: cut(ab + c)}
}

// bits maps one draw k to the quadrant's (row, column) bits: (0,0) below a,
// (0,1) below a+b, (1,0) below a+b+c, else (1,1). Row is [k ≥ ab]; column
// is [k ≥ a] − [k ≥ ab] + [k ≥ abc]. That is right only because the cuts do
// not decrease (a, b, c ≥ 0): [k ≥ ab] = 1 then implies [k ≥ a] = 1, and
// [k ≥ abc] = 1 implies both, so the column is 0 or 1 and never wraps.
func (q quadrants) bits(k uint64) (row, col uint64) {
	row = atLeast(k, q.ab)
	return row, atLeast(k, q.a) - row + atLeast(k, q.abc)
}
