package serve

// retry.go is the serving-layer retry policy, reusing the suite runner's
// Status taxonomy and core.RetryPolicy (internal/core): a query attempt ends
// in exactly one Status, and the policy decides which statuses are worth
// another attempt inside the same deadline budget. Serving retries Panicked
// only — a panic can be a transient race, but TimedOut means the query's
// budget is already spent (the budget token IS the attempt deadline), so
// re-running could only time out again.
//
// Between attempts the query backs off exponentially with deterministic
// jitter: base*2^attempt capped at BackoffCap, then jittered into
// [d/2, d) by a splitmix64 stream seeded from the server seed and the query
// id. Deterministic jitter keeps chaos tests reproducible while still
// decorrelating the retry storms of concurrent queries (each query id lands
// at a different point in the window).

import (
	"time"

	"gapbench/internal/core"
)

// RetryConfig tunes attempt retries. The zero value never retries; the
// backoff fields default as described on them.
type RetryConfig struct {
	// MaxRetries is the number of extra attempts a query gets when an
	// attempt panics (gapd -retries, default 1).
	MaxRetries int
	// BackoffBase is the pre-jitter delay before the first retry; each
	// further retry doubles it. Default 10ms.
	BackoffBase time.Duration
	// BackoffCap bounds the pre-jitter delay. Default 250ms.
	BackoffCap time.Duration
}

// policy is the serving rule: Panicked is possibly transient and worth
// another attempt; everything else is deterministic or budget-bound.
func (c RetryConfig) policy() *core.RetryPolicy {
	return &core.RetryPolicy{MaxRetries: c.MaxRetries, RetryOn: retryPanicked}
}

func retryPanicked(s core.Status) bool { return s == core.Panicked }

func (c RetryConfig) base() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 10 * time.Millisecond
}

func (c RetryConfig) cap() time.Duration {
	if c.BackoffCap > 0 {
		return c.BackoffCap
	}
	return 250 * time.Millisecond
}

// backoff computes the jittered delay before retry number retry (0-based:
// the delay between attempt 0 and attempt 1 is retry 0). seed individualizes
// the jitter stream per query.
func (c RetryConfig) backoff(retry int, seed uint64) time.Duration {
	d := c.base()
	limit := c.cap()
	for i := 0; i < retry && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	// Jitter into [d/2, d): full-window jitter would let a retry fire
	// immediately (no backoff at all); half-window keeps a floor while still
	// spreading concurrent retries.
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	j := splitmix64(seed + uint64(retry))
	return time.Duration(half + int64(j%uint64(half)))
}

// splitmix64 is the jitter PRNG — tiny, seedable, allocation-free, the same
// generator the chaos injector uses for deterministic corruption.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sleepInterruptible sleeps for d, returning early (false) if tok fires. The
// retry loop uses it so a client disconnect or budget expiry during backoff
// does not hold the inflight slot for the rest of the delay.
func sleepInterruptible(d time.Duration, tok interface{ Cancelled() bool }) bool {
	const step = time.Millisecond
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if tok.Cancelled() {
			return false
		}
		remaining := time.Until(deadline)
		if remaining > step {
			remaining = step
		}
		time.Sleep(remaining)
	}
	return !tok.Cancelled()
}
