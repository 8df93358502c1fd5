package par_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

// serialCountingSort is the oracle: positions of items in a stable
// counting-sorted order, computed the obvious single-threaded way.
func serialCountingSort(keys []int, bins int) (index []int64, pos []int64) {
	index = make([]int64, bins+1)
	for _, k := range keys {
		index[k+1]++
	}
	for k := 0; k < bins; k++ {
		index[k+1] += index[k]
	}
	next := make([]int64, bins)
	copy(next, index[:bins])
	pos = make([]int64, len(keys))
	for i, k := range keys {
		pos[i] = next[k]
		next[k]++
	}
	return index, pos
}

func TestShardedHistogramMatchesSerialCountingSort(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	rng := rand.New(rand.NewSource(7))
	for _, machineSize := range []int{1, 3, 8} {
		m := par.NewMachine(machineSize)
		for _, workers := range []int{0, 1, 2, 5, 32} {
			for _, shape := range []struct{ items, bins int }{
				{0, 0}, {0, 5}, {1, 1}, {1, 7}, {17, 3}, {1000, 1},
				{1000, 10}, {1000, 997}, {5000, 64}, {4096, 4096},
			} {
				keys := make([]int, shape.items)
				for i := range keys {
					keys[i] = rng.Intn(max(shape.bins, 1))
				}
				wantIndex, wantPos := serialCountingSort(keys, shape.bins)

				h := m.ShardedHistogram(shape.items, shape.bins, workers, func(i int) int { return keys[i] })
				gotIndex := h.Index()
				if !slices.Equal(gotIndex, wantIndex) {
					t.Fatalf("size=%d workers=%d shape=%+v: index = %v, want %v",
						machineSize, workers, shape, gotIndex, wantIndex)
				}
				if again := h.Index(); !slices.Equal(again, gotIndex) {
					t.Fatalf("Index is not idempotent")
				}
				gotPos := make([]int64, shape.items)
				h.Scatter(func(i int, pos int64) { gotPos[i] = pos })
				if !slices.Equal(gotPos, wantPos) {
					t.Fatalf("size=%d workers=%d shape=%+v: positions = %v, want %v (scatter must be stable)",
						machineSize, workers, shape, gotPos, wantPos)
				}
			}
		}
		m.Close()
	}
}

func TestHistogramScatterPlacesSortedStable(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	// Sort (key, seq) records by key via the scatter and check the output is
	// key-sorted with per-key sequence order preserved.
	const items, bins = 20000, 101
	keys := make([]int, items)
	rng := rand.New(rand.NewSource(11))
	for i := range keys {
		keys[i] = rng.Intn(bins)
	}
	h := m.ShardedHistogram(items, bins, 0, func(i int) int { return keys[i] })
	index := h.Index()
	outKey := make([]int, items)
	outSeq := make([]int, items)
	h.Scatter(func(i int, pos int64) {
		outKey[pos] = keys[i]
		outSeq[pos] = i
	})
	for k := 0; k < bins; k++ {
		for p := index[k]; p < index[k+1]; p++ {
			if outKey[p] != k {
				t.Fatalf("position %d holds key %d, want %d", p, outKey[p], k)
			}
			if p > index[k] && outSeq[p] <= outSeq[p-1] {
				t.Fatalf("key %d not stable: seq %d before %d", k, outSeq[p-1], outSeq[p])
			}
		}
	}
}

func TestHistogramScatterTwicePanics(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	h := m.ShardedHistogram(4, 2, 0, func(i int) int { return i % 2 })
	h.Scatter(func(i int, pos int64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Scatter did not panic")
		}
	}()
	h.Scatter(func(i int, pos int64) {})
}

func TestPrefixSumMatchesSerial(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	rng := rand.New(rand.NewSource(3))
	for _, machineSize := range []int{1, 4} {
		m := par.NewMachine(machineSize)
		// Lengths straddling the serial threshold, plus tiny cases.
		for _, n := range []int{0, 1, 2, 100, 4095, 4096, 4097, 50000} {
			counts := make([]int64, n)
			for i := range counts {
				counts[i] = int64(rng.Intn(7))
			}
			want := make([]int64, n+1)
			var run int64
			for i, c := range counts {
				want[i] = run
				run += c
			}
			want[n] = run
			for _, workers := range []int{0, 1, 3} {
				got := m.PrefixSum(counts, workers)
				if !slices.Equal(got, want) {
					t.Fatalf("size=%d n=%d workers=%d: prefix sum mismatch", machineSize, n, workers)
				}
			}
		}
		m.Close()
	}
}

func TestReduceMaxInt64(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	xs := []int64{3, -9, 12, 0, 12, -40, 7}
	for _, workers := range []int{0, 1, 2, 7, 19} {
		got := m.ReduceMaxInt64(len(xs), workers, func(lo, hi int) int64 {
			mx := int64(math.MinInt64)
			for i := lo; i < hi; i++ {
				if xs[i] > mx {
					mx = xs[i]
				}
			}
			return mx
		})
		if got != 12 {
			t.Fatalf("workers=%d: max = %d, want 12", workers, got)
		}
	}
	if got := m.ReduceMaxInt64(0, 0, func(lo, hi int) int64 { return 99 }); got != math.MinInt64 {
		t.Fatalf("empty max = %d, want MinInt64", got)
	}
	if got := m.ReduceMaxInt64(-5, 3, func(lo, hi int) int64 { return 99 }); got != math.MinInt64 {
		t.Fatalf("negative-n max = %d, want MinInt64", got)
	}
}

// TestHistogramShardBudget checks that wide key spaces cap the shard count:
// the scratch memory must stay within a small multiple of the item count
// even when a caller asks for many workers.
func TestHistogramShardBudget(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(8)
	defer m.Close()
	// bins >> items: the histogram must still be correct (and, internally,
	// nearly serial — correctness is what we can observe from outside).
	const items, bins = 100, 1 << 20
	keys := make([]int, items)
	for i := range keys {
		keys[i] = (i * 7919) % bins
	}
	h := m.ShardedHistogram(items, bins, 8, func(i int) int { return keys[i] })
	index := h.Index()
	if index[bins] != items {
		t.Fatalf("total = %d, want %d", index[bins], items)
	}
	seen := make([]bool, items)
	h.Scatter(func(i int, pos int64) {
		if pos < 0 || pos >= items {
			t.Errorf("position %d out of range", pos)
			return
		}
		if seen[pos] {
			t.Errorf("position %d assigned twice", pos)
		}
		seen[pos] = true
	})
}
