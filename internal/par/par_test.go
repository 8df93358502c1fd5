package par_test

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	for _, workers := range []int{0, 1, 3, 16} {
		for _, n := range []int{0, 1, 7, 1000} {
			counts := make([]int32, n)
			m.For(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForBlockedPartitions(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	for _, workers := range []int{1, 4, 9} {
		n := 103
		covered := make([]int32, n)
		m.ForBlocked(n, workers, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty range [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestForDynamicCoversAllChunks(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	n := 1001
	covered := make([]int32, n)
	m.ForDynamic(n, 13, 5, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	// Degenerate chunk sizes.
	total := int32(0)
	m.ForDynamic(10, 0, 3, func(lo, hi int) { atomic.AddInt32(&total, int32(hi-lo)) })
	if total != 10 {
		t.Fatalf("chunk=0 covered %d, want 10", total)
	}
}

func TestForCyclicAssignsRoundRobin(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	const n, workers = 20, 4
	owner := make([]int32, n)
	m.ForCyclic(n, workers, func(w, i int) { owner[i] = int32(w) })
	for i := 0; i < n; i++ {
		if owner[i] != int32(i%workers) {
			t.Fatalf("index %d owned by %d, want %d", i, owner[i], i%workers)
		}
	}
}

func TestForWorkerRangesDisjointAndComplete(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	const n, workers = 57, 5
	covered := make([]int32, n)
	seen := make([]int32, workers)
	m.ForWorker(n, workers, func(w, lo, hi int) {
		atomic.AddInt32(&seen[w], 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d invoked %d times", w, c)
		}
	}
}

func TestReduceInt64(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	for _, workers := range []int{1, 4} {
		got := m.ReduceInt64(100, workers, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		})
		if got != 4950 {
			t.Fatalf("workers=%d: sum = %d, want 4950", workers, got)
		}
	}
	if m.ReduceInt64(0, 4, func(int, int) int64 { return 99 }) != 0 {
		t.Fatal("empty reduce nonzero")
	}
}

func TestReduceFloat64(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	got := m.ReduceFloat64(10, 3, func(lo, hi int) float64 { return float64(hi - lo) })
	if got != 10 {
		t.Fatalf("sum = %v, want 10", got)
	}
}

func TestReduceDynamicInt64(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	got := m.ReduceDynamicInt64(1000, 7, 4, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s++
		}
		return s
	})
	if got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
}

// Property: every reduce variant agrees with a serial sum for arbitrary
// worker counts.
func TestReduceProperty(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	f := func(n uint16, workers uint8) bool {
		nn := int(n % 2048)
		w := int(workers%8) + 1
		sum := func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i * i % 97)
			}
			return s
		}
		want := sum(0, nn)
		return m.ReduceInt64(nn, w, sum) == want &&
			m.ReduceDynamicInt64(nn, 9, w, sum) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if par.DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
