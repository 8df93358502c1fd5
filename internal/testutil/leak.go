package testutil

import (
	"runtime"
	"testing"
	"time"

	"gapbench/internal/par"
)

// CheckGoroutines asserts that the code under test does not leak goroutines:
// it snapshots runtime.NumGoroutine and returns a function (meant for defer)
// that fails the test if the count has not returned to the baseline. Every
// loop helper in internal/par and executor in internal/galois joins its
// workers before returning, so a lingering goroutine means a lost worker —
// at production scale, a slow leak that eventually starves the scheduler.
//
// Workers parked in runtime.Gosched/timer sleeps can take a few scheduler
// ticks to unwind after wg.Wait returns, so the check polls with a deadline
// instead of sampling once.
//
//	defer testutil.CheckGoroutines(t)()
func CheckGoroutines(tb testing.TB) func() {
	return checkGoroutines(tb, 5*time.Second)
}

// checkGoroutines is CheckGoroutines with an injectable retry deadline.
func checkGoroutines(tb testing.TB, patience time.Duration) func() {
	tb.Helper()
	// par.Default() lazily builds the process-default machine, whose pool
	// goroutines live for the process lifetime. Warm it
	// before snapshotting so its workers are part of the baseline rather
	// than being reported as a leak by whichever test touches par first.
	par.Default()
	before := runtime.NumGoroutine()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(patience)
		var after int
		for {
			runtime.Gosched()
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		tb.Errorf("goroutine leak: %d before, %d still running after deadline", before, after)
	}
}
