package serve

import (
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	for retry, preJitter := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond, // capped
	} {
		for seed := uint64(0); seed < 20; seed++ {
			d := backoff(retry, seed)
			if d < preJitter/2 || d >= preJitter {
				t.Errorf("backoff(retry=%d, seed=%d) = %v, want in [%v, %v)", retry, seed, d, preJitter/2, preJitter)
			}
		}
	}
}

func TestBackoffDeterministic(t *testing.T) {
	if a, b := backoff(1, 42), backoff(1, 42); a != b {
		t.Errorf("same (retry, seed) gave %v then %v", a, b)
	}
	// Different seeds should (overwhelmingly) jitter differently.
	distinct := map[time.Duration]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		distinct[backoff(0, seed)] = true
	}
	if len(distinct) < 2 {
		t.Error("jitter produced one value across 16 seeds")
	}
}

// TestServeRetryPolicyDefaults: a Config.Retry with gapd's -retries default
// of 1 retries a first Panicked or TimedOut attempt and no second one, never
// retries a deterministic outcome, and the zero Config.Retry never retries.
func TestServeRetryPolicyDefaults(t *testing.T) {
	p := Config{Retry: core.RetryPolicy{MaxRetries: 1}}.Retry
	for _, s := range []core.Status{core.Panicked, core.TimedOut} {
		if !p.Retries(s, 0) {
			t.Errorf("a first %v attempt is not retried", s)
		}
		if p.Retries(s, 1) {
			t.Errorf("MaxRetries: 1 allowed a second retry after %v", s)
		}
	}
	for _, s := range []core.Status{core.OK, core.VerifyFailed, core.Skipped} {
		if p.Retries(s, 0) {
			t.Errorf("the serving policy retries %v, which would end the same way again", s)
		}
	}
	if zero := (Config{}).Retry; zero.Retries(core.Panicked, 0) || zero.Retries(core.TimedOut, 0) {
		t.Error("the zero Config.Retry retried")
	}
}

// TestServeTimedOutIsNotRetried: the shared policy retries TimedOut, but a
// served attempt's deadline is the query's budget token, so a TimedOut query
// has no budget left. With MaxRetries 1 it still ends after one attempt.
func TestServeTimedOutIsNotRetried(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startServer(t, Config{PoolSize: 1, Workers: 1}, in, stallSSSP{stubFramework{"Stub"}})
	if srv.cfg.Retry.MaxRetries != 1 || !srv.cfg.Retry.Retries(core.TimedOut, 0) {
		t.Fatalf("policy %+v does not retry a first TimedOut attempt", srv.cfg.Retry)
	}
	c := dial(t, sock)
	resp := c.do(kernelQuery(t, srv, Request{Source: 1, BudgetMS: 30}))
	if resp.Code != CodeDeadlineExceeded || resp.Retries != 0 {
		t.Fatalf("stalled query: code=%s retries=%d err=%q, want DeadlineExceeded with 0 retries", resp.Code, resp.Retries, resp.Error)
	}
	if st := srv.StatsSnapshot(); st.Retries != 0 || st.Timeouts != 1 {
		t.Errorf("stats after a timed-out query: %+v", st)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestKernelMicrosRoundsUp: an attempt that ran reports at least 1 µs, a
// whole number of microseconds reads as itself, and any part of one more
// counts as one more.
func TestKernelMicrosRoundsUp(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int64
	}{{0, 1}, {1e-9, 1}, {4e-7, 1}, {1e-6, 1}, {3e-6, 3}, {3.001e-6, 4}, {0.25, 250000}} {
		if got := kernelMicros(c.seconds); got != c.want {
			t.Errorf("kernelMicros(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestSleepInterruptible(t *testing.T) {
	tok := par.NewCancelToken()
	start := time.Now()
	if !sleepInterruptible(15*time.Millisecond, tok) {
		t.Error("uncancelled sleep reported interruption")
	}
	if got := time.Since(start); got < 15*time.Millisecond {
		t.Errorf("slept %v, want >= 15ms", got)
	}

	tok2 := par.NewCancelToken()
	tok2.Cancel()
	start = time.Now()
	if sleepInterruptible(500*time.Millisecond, tok2) {
		t.Error("cancelled sleep reported completion")
	}
	if got := time.Since(start); got > 100*time.Millisecond {
		t.Errorf("cancelled sleep took %v, want fast exit", got)
	}
}
