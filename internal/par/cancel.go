package par

// cancel.go is the cooperative-cancellation half of the fault-isolation
// story (DESIGN.md §9). Multi-framework benchmark studies all hit the same
// operational reality: some (framework, kernel, graph) cells never
// terminate — Pollard & Norris report exactly this, and "Revisiting Graph
// Analytics Benchmark" makes per-cell timeouts a first-class evaluation
// rule. A deadline is only useful if something actually polls it, so the
// machine carries a region-scoped CancelToken that every schedule consults
// at its natural work boundaries: per slot for the blocked schedules, per
// chunk for the dynamic ones, and every cancelStride indices inside the
// per-index loops so even a single enormous block notices the deadline.
//
// Cancellation is strictly cooperative and strictly advisory: a cancelled
// region skips the *remaining* work and still joins its barrier, so the
// submitting kernel returns quickly with an incomplete (garbage) result that
// the harness then discards. Nothing is killed; if a kernel's own loop body
// never returns, the token cannot help and the runner escalates to machine
// abandonment (internal/core).

import (
	"sync/atomic"
	"time"
)

// cancelStride is how many per-index iterations For/ForCyclic run between
// deadline polls: a power of two so the poll guard is a single mask. 512
// index-level iterations amortize the time.Now() call in Cancelled to noise
// while still bounding the reaction latency of a hot loop.
const cancelStride = 512

// CancelToken is a one-shot, region-scoped cancellation signal. It fires
// either when a caller invokes Cancel, when its optional deadline passes
// (observed lazily at the next poll), or when any chained parent token fires
// (see Chain). All methods are nil-safe: a nil token never cancels, so hot
// paths guard with a plain pointer test and unconfigured machines pay
// nothing.
type CancelToken struct {
	fired    atomic.Bool
	deadline time.Time // zero means caller-driven only
	// parents are upstream tokens this one derives from: a fired parent
	// fires this token at the next poll. Set at construction (Chain) and
	// never mutated afterwards, so Cancelled can read it without
	// synchronization.
	parents []*CancelToken
	polls   atomic.Int64
}

// NewCancelToken returns a caller-driven token (fires only via Cancel).
func NewCancelToken() *CancelToken { return &CancelToken{} }

// NewDeadlineToken returns a token that fires once d has elapsed from now
// (or earlier, via Cancel).
func NewDeadlineToken(d time.Duration) *CancelToken {
	return &CancelToken{deadline: time.Now().Add(d)}
}

// Chain returns a token that fires when any of the given parents fires (or
// when Cancel is called on the chained token itself). Nil parents are
// skipped. This is how a serving layer composes independent cancellation
// causes — a per-query deadline budget and a client-disconnect signal — into
// the single token a machine polls:
//
//	tok := par.Chain(connToken, par.NewDeadlineToken(budget))
//	machine.SetCancel(tok)
//
// Once a parent trips the chain the child latches fired, so later polls stay
// cheap and the child reports cancelled even if the parent is reset-free (all
// tokens are one-shot). Cancelling a chained token does not propagate upward:
// the parents stay live for their other children.
func Chain(parents ...*CancelToken) *CancelToken {
	t := &CancelToken{}
	for _, p := range parents {
		if p != nil {
			t.parents = append(t.parents, p)
		}
	}
	return t
}

// Cancel fires the token. Idempotent and safe from any goroutine.
func (t *CancelToken) Cancel() {
	if t != nil {
		t.fired.Store(true)
	}
}

// Cancelled reports whether the token has fired, firing it first if the
// deadline has passed. Nil-safe; the fast path is one atomic load.
func (t *CancelToken) Cancelled() bool {
	if t == nil {
		return false
	}
	t.polls.Add(1)
	if t.fired.Load() {
		return true
	}
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		t.fired.Store(true)
		return true
	}
	for _, p := range t.parents {
		if p.Cancelled() {
			t.fired.Store(true)
			return true
		}
	}
	return false
}

// Polls reports how many times Cancelled was consulted — the observability
// hook the cancellation tests use to prove each schedule actually polls.
func (t *CancelToken) Polls() int64 {
	if t == nil {
		return 0
	}
	return t.polls.Load()
}

// SetCancel installs (or, with nil, removes) the machine's region-scoped
// cancel token. Regions submitted after the call observe the token; regions
// already in flight observe it at their next slot or chunk boundary, because
// dispatch re-reads the pointer when each region is built. The harness
// installs a fresh token per trial and clears it afterwards.
func (m *Machine) SetCancel(t *CancelToken) {
	m.cancel.Store(t)
}

// CancelToken returns the currently installed token (nil when none).
func (m *Machine) CancelToken() *CancelToken {
	return m.cancel.Load()
}

// Interrupted reports whether the machine's installed cancel token has
// fired — the one-line poll framework round loops use:
//
//	for !frontier.empty() {
//		if exec.Interrupted() {
//			return dist // partial; the harness discards cancelled trials
//		}
//		...
//	}
//
// Without a token it is one atomic pointer load per round.
func (m *Machine) Interrupted() bool {
	return m.cancel.Load().Cancelled()
}
