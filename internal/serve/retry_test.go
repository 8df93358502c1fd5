package serve

import (
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/par"
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

func TestServeRetryPolicyDefaults(t *testing.T) {
	p := RetryConfig{MaxRetries: 1}.policy()
	if !p.Retries(core.Panicked, 0) {
		t.Error("a first panicked attempt is not retried")
	}
	if p.Retries(core.Panicked, 1) {
		t.Error("MaxRetries: 1 allowed a second retry")
	}
	for _, s := range []core.Status{core.OK, core.TimedOut, core.VerifyFailed, core.Skipped} {
		if p.Retries(s, 0) {
			t.Errorf("the serving policy retries %v; the budget token makes that pointless", s)
		}
	}
	if (RetryConfig{}).policy().Retries(core.Panicked, 0) {
		t.Error("the zero RetryConfig retried")
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
