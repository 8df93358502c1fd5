// Package measure holds the estimators and the span recorder the benchmark
// reports with. Nothing here knows about graphs or the daemon.
package measure

import (
	"math"
	"sort"
)

// MinAcrossPasses is the suite's cell-time estimator. passes[p][i] is the
// time of trial slot i in pass p (slot i always runs source i); the estimate
// is the mean over slots of each slot's minimum across passes. A host
// slowdown burst lasts tens of seconds here, so with interleaved passes it
// spoils one pass of every cell, and the minimum drops that pass; a median of
// contiguous trials would lose the whole cell to it. A slot missing from a
// pass (shorter row) is skipped; NaN is returned when no slot has a sample.
func MinAcrossPasses(passes [][]float64) float64 {
	slots := 0
	for _, p := range passes {
		if len(p) > slots {
			slots = len(p)
		}
	}
	sum, n := 0.0, 0
	for i := 0; i < slots; i++ {
		best := math.Inf(1)
		for _, p := range passes {
			if i < len(p) && p[i] < best {
				best = p[i]
			}
		}
		if !math.IsInf(best, 1) {
			sum += best
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, which must be ascending. ok is false, and the value 0, when fewer
// than ten samples lie beyond that rank.
func Percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (NaN when empty).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Geomean returns the geometric mean of xs, which must be positive (NaN when
// empty).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is what
// the benchmark's acceptance rule is written in. It needs two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// IQRSpread is the distance between the first and third quartile of xs as a
// share of their median: the run-to-run spread a regression bound must cover.
func IQRSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}
