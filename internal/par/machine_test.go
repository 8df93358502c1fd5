package par_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

// TestMachineCloseJoinsWorkers is the lifecycle leak assertion: every pool
// worker created by NewMachine must have exited by the time Close returns.
func TestMachineCloseJoinsWorkers(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	for _, workers := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		m := par.NewMachine(workers)
		// Run some regions so workers have actually woken at least once.
		var sum atomic.Int64
		m.For(1000, workers, func(i int) { sum.Add(int64(i)) })
		if got := sum.Load(); got != 499500 {
			t.Fatalf("workers=%d: sum = %d, want 499500", workers, got)
		}
		m.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines before NewMachine, %d after Close",
					workers, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMachineCloseIdempotentAndUsable: double Close is safe, and a closed
// machine still executes regions correctly (serially on the caller).
func TestMachineCloseIdempotentAndUsable(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	m.Close()
	m.Close()
	var sum atomic.Int64
	m.For(100, 4, func(i int) { sum.Add(1) })
	if sum.Load() != 100 {
		t.Fatalf("closed machine ran %d iterations, want 100", sum.Load())
	}
	if got := m.ReduceInt64(10, 4, func(lo, hi int) int64 { return int64(hi - lo) }); got != 10 {
		t.Fatalf("closed machine reduce = %d, want 10", got)
	}
}

// TestMachineConcurrentRegions drives regions from many submitting goroutines
// at once (run under -race by scripts/check.sh). Regions submitted
// concurrently share the pool; slot claiming guarantees each completes even
// when all workers are busy elsewhere.
func TestMachineConcurrentRegions(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	const submitters = 8
	const rounds = 25
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 64 + s + r
				got := m.ReduceInt64(n, 4, func(lo, hi int) int64 {
					var sum int64
					for i := lo; i < hi; i++ {
						sum += int64(i)
					}
					return sum
				})
				want := int64(n) * int64(n-1) / 2
				if got != want {
					t.Errorf("submitter %d round %d: sum = %d, want %d", s, r, got, want)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestMachineNestedRegions: a region body that (against CONTRIBUTING advice)
// submits another region must complete rather than deadlock — the inner
// submitter absorbs unclaimed slots itself.
func TestMachineNestedRegions(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(2)
	defer m.Close()
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.For(4, 2, func(i int) {
			m.For(8, 2, func(j int) { total.Add(1) })
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested region submission deadlocked")
	}
	if total.Load() != 32 {
		t.Fatalf("nested regions ran %d inner iterations, want 32", total.Load())
	}
}

// TestMachinePanicPropagation: a panicking region body must surface on the
// submitting goroutine and must not kill pool workers or deadlock the
// machine.
func TestMachinePanicPropagation(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()

	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("panic in region body did not propagate to submitter")
			}
			if s, ok := p.(string); !ok || s != "boom" {
				t.Fatalf("propagated panic = %v, want \"boom\"", p)
			}
		}()
		m.For(100, 4, func(i int) {
			if i == 37 {
				panic("boom")
			}
		})
	}()

	// The machine must still be fully operational: all workers alive, next
	// region completes.
	var sum atomic.Int64
	m.For(1000, 4, func(i int) { sum.Add(1) })
	if sum.Load() != 1000 {
		t.Fatalf("post-panic region ran %d iterations, want 1000", sum.Load())
	}
}

// TestMachinePanicSerial: the inline (width-1) fast path propagates panics
// naturally too.
func TestMachinePanicSerial(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("serial region panic did not propagate")
		}
	}()
	m.For(1, 4, func(i int) { panic("serial boom") })
}

// TestMachineStats: region/serial/barrier/chunk counters reflect the
// synchronization structure of the submitted work, and ResetStats zeroes
// them.
func TestMachineStats(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()

	if s := m.Stats(); s.Regions != 0 || s.Barriers != 0 || s.Chunks != 0 {
		t.Fatalf("fresh machine stats nonzero: %+v", s)
	}
	if s := m.Stats(); s.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", s.Workers)
	}

	m.ForBlocked(1000, 4, func(lo, hi int) {}) // parallel: width 4
	m.For(1, 4, func(i int) {})                // serial fast path
	m.ForDynamic(100, 10, 4, func(lo, hi int) {})

	s := m.Stats()
	if s.Regions != 3 {
		t.Fatalf("Regions = %d, want 3", s.Regions)
	}
	if s.SerialRegions != 1 {
		t.Fatalf("SerialRegions = %d, want 1", s.SerialRegions)
	}
	// The blocked region has 4 slots, the dynamic region 4 slots: slots are
	// claimed by 1..4 participants, and every claimed share is one barrier
	// crossing, so Barriers counts total participant shares in [2, 8].
	if s.Barriers < 2 || s.Barriers > 8 {
		t.Fatalf("Barriers = %d, want within [2, 8]", s.Barriers)
	}
	if s.Chunks != 10 {
		t.Fatalf("Chunks = %d, want 10 (100 iterations / chunk 10)", s.Chunks)
	}
	if ew := s.EffectiveWorkers(); ew <= 0 || ew > 4 {
		t.Fatalf("EffectiveWorkers = %v, want in (0, 4]", ew)
	}

	m.ResetStats()
	if s := m.Stats(); s.Regions != 0 || s.SerialRegions != 0 || s.Barriers != 0 || s.Chunks != 0 {
		t.Fatalf("stats after ResetStats nonzero: %+v", s)
	}
}

// TestMachineStatsSerialChunks: the inline dynamic fast path still counts its
// single chunk.
func TestMachineStatsSerialChunks(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(1)
	defer m.Close()
	m.ForDynamic(100, 10, 1, func(lo, hi int) {})
	got := m.Stats()
	if got.Chunks != 1 {
		t.Fatalf("serial dynamic Chunks = %d, want 1", got.Chunks)
	}
	if got.SerialRegions != 1 || got.Regions != 1 {
		t.Fatalf("serial dynamic stats = %+v", got)
	}
}

// TestMachineWidthExceedsPool: a region may request more slots than the pool
// has workers (Optimized mode simulating hyperthreading on a small machine);
// participants then run several slots each, and slot-indexed semantics
// (ForWorker ids, ForCyclic strides) hold exactly.
func TestMachineWidthExceedsPool(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(2)
	defer m.Close()
	const n, workers = 57, 9
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
			t.Fatalf("worker slot %d invoked %d times", w, c)
		}
	}
	owner := make([]int32, 20)
	m.ForCyclic(20, 4, func(w, i int) { atomic.StoreInt32(&owner[i], int32(w)) })
	for i := range owner {
		if owner[i] != int32(i%4) {
			t.Fatalf("cyclic index %d owned by %d, want %d", i, owner[i], i%4)
		}
	}
}

// TestMachineString: the identity string names the width (used in logs and
// failure messages).
func TestMachineString(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(3)
	defer m.Close()
	if got, want := m.String(), "par.Machine(workers=3)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestStaticPartitionProperty is the satellite-1 property test: for all
// (n, workers), the static partition used by ForBlocked / Reduce* — slot s
// covers [s*n/active, (s+1)*n/active) — covers [0, n) exactly once with every
// range non-empty. This is why the historical `if lo < hi` guards were dead
// code: clamp guarantees active <= n, and with active <= n the split points
// s*n/active are strictly increasing.
func TestStaticPartitionProperty(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	f := func(nRaw uint16, wRaw uint8) bool {
		n := int(nRaw%5000) + 1
		workers := int(wRaw%64) + 1
		covered := make([]int32, n)
		ranges := atomic.Int64{}
		m.ForBlocked(n, workers, func(lo, hi int) {
			if lo >= hi {
				return // empty range: leaves covered gap -> property fails below
			}
			ranges.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i := range covered {
			if covered[i] != 1 {
				t.Logf("n=%d workers=%d: index %d covered %d times", n, workers, i, covered[i])
				return false
			}
		}
		// Every slot's range must have been non-empty: exactly
		// min(workers, n) ranges ran.
		want := int64(workers)
		if n < workers {
			want = int64(n)
		}
		if ranges.Load() != want {
			t.Logf("n=%d workers=%d: %d non-empty ranges, want %d", n, workers, ranges.Load(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultMachineSingleton: Default() is one lazily built machine sized to
// DefaultWorkers.
func TestDefaultMachineSingleton(t *testing.T) {
	m1 := par.Default()
	m2 := par.Default()
	if m1 != m2 {
		t.Fatal("Default() returned distinct machines")
	}
	if m1.Size() != par.DefaultWorkers() {
		t.Fatalf("default machine size = %d, want DefaultWorkers = %d", m1.Size(), par.DefaultWorkers())
	}
}
