package serve

// pool.go is the bounded machine-lease pool at the heart of the daemon's
// scheduler. The suite runner (internal/core) already knows how to abandon a
// par.Machine whose kernel ignores cancellation and lazily build a fresh one;
// this pool is that idea extracted into a multi-tenant form: a fixed number
// of persistent worker pools, leased one query at a time, with self-healing
// replacement when a lease is abandoned. The invariant — every Acquire must
// reach Release or Abandon on all paths, including panic paths — is enforced
// at runtime by the servecheck drain assertion (outstanding leases must be
// zero when the pool drains, see check.go), which replaced the gapvet
// lease-return rule in PR 23 (DESIGN.md §8, "The audit").

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gapbench/internal/par"
)

// Pool errors returned by Acquire.
var (
	// ErrPoolDraining: the pool is shutting down; no new leases.
	ErrPoolDraining = errors.New("serve: pool draining")
	// ErrAcquireCancelled: the caller's token fired while waiting for an
	// idle machine (deadline passed or client disconnected in the queue).
	ErrAcquireCancelled = errors.New("serve: cancelled while waiting for a machine lease")
)

// acquirePollInterval is how often a queued Acquire re-checks its
// cancellation token while blocked on the idle channel. Tokens are
// poll-based (they have no channel to select on), so queue waits trade a
// sub-millisecond reaction latency for zero per-token goroutines.
const acquirePollInterval = 500 * time.Microsecond

// Pool is a bounded set of persistent par.Machines leased to queries one at
// a time. All methods are safe for concurrent use.
type Pool struct {
	workers int
	// idle holds machines not currently leased. Its capacity is the pool's
	// size: every live machine is either idle (in the channel) or leased
	// (counted by outstanding), so drain can account for all of them.
	idle chan *par.Machine

	outstanding atomic.Int64 // leases currently held
	abandoned   atomic.Int64 // lifetime abandonments
	// reapers tracks the goroutines joining abandoned machines: each one
	// blocks in Machine.Close until the stuck kernel finally returns, so
	// the pool's drain can prove no worker goroutine outlives it (when the
	// stuck kernels are bounded, as chaos faults are).
	reapers  sync.WaitGroup
	draining atomic.Bool
}

// NewPool builds a pool of size machines with workersPer workers each.
// size < 1 means 1.
func NewPool(size, workersPer int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{workers: workersPer, idle: make(chan *par.Machine, size)}
	for i := 0; i < size; i++ {
		p.idle <- par.NewMachine(workersPer)
	}
	return p
}

// Workers returns the per-machine width.
func (p *Pool) Workers() int { return p.workers }

// Outstanding reports the leases currently held.
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

// Abandoned reports the lifetime count of machines lost to stuck kernels.
func (p *Pool) Abandoned() int64 { return p.abandoned.Load() }

// Lease is one held machine. Exactly one of Release or Abandon must be
// called, exactly once, on every lease — on all paths, including panic paths
// (defer it). The servecheck drain assertion (check.go) catches a lease that
// never settles; a second settlement panics here.
type Lease struct {
	p       *Pool
	m       *par.Machine
	settled atomic.Bool
}

// Machine returns the leased machine. The holder installs its query token
// with SetCancel and runs kernel regions on it.
func (l *Lease) Machine() *par.Machine { return l.m }

// Acquire leases an idle machine, blocking until one frees up, the token
// fires (ErrAcquireCancelled), or the pool drains (ErrPoolDraining). The
// wait is the admission-bounded lease queue: admission control guarantees it
// is short, and the query's deadline budget keeps ticking while queued.
func (p *Pool) Acquire(tok *par.CancelToken) (*Lease, error) {
	timer := time.NewTimer(acquirePollInterval)
	defer timer.Stop()
	for {
		if p.draining.Load() {
			return nil, ErrPoolDraining
		}
		select {
		case m := <-p.idle:
			p.outstanding.Add(1)
			return &Lease{p: p, m: m}, nil
		case <-timer.C:
			if tok.Cancelled() {
				return nil, ErrAcquireCancelled
			}
			timer.Reset(acquirePollInterval)
		}
	}
}

// Release returns a healthy machine to the idle set (clearing its cancel
// token first, so the next lease starts clean). During drain the machine is
// closed instead of re-idled.
func (l *Lease) Release() {
	if !l.settled.CompareAndSwap(false, true) {
		panic("serve: lease settled twice (Release after Release/Abandon)")
	}
	l.m.SetCancel(nil)
	if l.p.draining.Load() {
		l.m.Close()
		l.p.outstanding.Add(-1)
		return
	}
	select {
	case l.p.idle <- l.m:
	default:
		// Cannot happen while the accounting holds (idle capacity == size
		// and this machine was out of the channel), but close rather than
		// block or leak if it ever does.
		l.m.Close()
	}
	l.p.outstanding.Add(-1)
}

// Abandon drops a machine whose kernel ignored cancellation past the grace
// period: a replacement machine enters the idle set immediately (other
// tenants never see a shrunken pool), and a reaper goroutine joins the stuck
// machine's workers whenever the kernel finally returns. The stuck kernel
// keeps the old machine's token installed, so its future regions still drain
// fast if it ever starts polling.
func (l *Lease) Abandon() {
	if !l.settled.CompareAndSwap(false, true) {
		panic("serve: lease settled twice (Abandon after Release/Abandon)")
	}
	l.p.abandoned.Add(1)
	m := l.m
	l.p.reapers.Add(1)
	go func() {
		defer l.p.reapers.Done()
		m.Close()
	}()
	if !l.p.draining.Load() {
		select {
		case l.p.idle <- par.NewMachine(l.p.workers):
		default:
			// Idle already full (a concurrent drain emptied outstanding);
			// skip the replacement rather than leak a machine.
		}
	}
	l.p.outstanding.Add(-1)
}

// Drain shuts the pool down: no new leases are granted, machines are closed
// as they come back, and Drain blocks until every lease is settled and every
// abandoned-machine reaper has joined its workers — or the timeout passes.
// On success the outstanding-lease counter is provably zero; under the
// servecheck build tag a leak panics (that assertion is what enforces the
// invariant), otherwise it is returned as an error for the caller to report.
func (p *Pool) Drain(timeout time.Duration) error {
	p.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for {
		select {
		case m := <-p.idle:
			m.Close()
			continue
		default:
		}
		if p.outstanding.Load() == 0 && len(p.idle) == 0 {
			break
		}
		if time.Now().After(deadline) {
			n := p.outstanding.Load()
			leaseLeakCheck(n)
			return fmt.Errorf("serve: drain timed out with %d lease(s) still outstanding", n)
		}
		time.Sleep(acquirePollInterval)
	}
	leaseLeakCheck(p.outstanding.Load())

	// All leases settled; wait out the reapers (bounded when the stuck
	// kernels are — chaos Hangs always return eventually).
	done := make(chan struct{})
	go func() {
		p.reapers.Wait()
		close(done)
	}()
	remaining := time.Until(deadline)
	if remaining < 0 {
		remaining = 0
	}
	reapTimer := time.NewTimer(remaining)
	defer reapTimer.Stop()
	select {
	case <-done:
		return nil
	case <-reapTimer.C:
		return errors.New("serve: drain timed out waiting for abandoned machines to be reaped (kernels still stuck)")
	}
}
