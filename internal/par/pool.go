package par

// pool.go is the bounded machine-lease pool: a fixed number of persistent
// Machines, leased one attempt at a time, with self-healing replacement when
// a lease is abandoned. It is the one machine-lease path of the tree. The
// suite runner (internal/core) holds one one-machine pool per rule set, gapd
// (internal/serve) one pool of its -pool machines, and core.RunSandboxed is
// the only code outside tests that settles a lease. Every Acquire must reach
// Release or Abandon on all paths, panic paths included; the armed drain
// assertion (leaseLeakCheck: outstanding leases must be zero when the pool
// drains) enforces it at runtime (DESIGN.md §8, "The audit").

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gapbench/internal/invariant"
)

// Pool errors returned by Acquire.
var (
	// ErrPoolDraining: the pool is shutting down; no new leases.
	ErrPoolDraining = errors.New("par: pool draining")
	// ErrAcquireCancelled: the caller's token fired while waiting for an
	// idle machine (deadline passed or client disconnected in the queue).
	ErrAcquireCancelled = errors.New("par: cancelled while waiting for a machine lease")
)

// acquirePollInterval is how often a queued Acquire re-checks its
// cancellation token while blocked on the idle channel. Tokens are
// poll-based (they have no channel to select on), so queue waits trade a
// sub-millisecond reaction latency for zero per-token goroutines.
const acquirePollInterval = 500 * time.Microsecond

// Pool is a bounded set of persistent Machines leased one at a time. All
// methods are safe for concurrent use.
type Pool struct {
	// workers is every machine's width, replacements included.
	workers int
	// idle holds machines not currently leased. Its capacity is the pool's
	// size: every live machine is either idle (in the channel) or leased
	// (counted by outstanding), so drain can account for all of them.
	idle chan *Machine

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
	p := &Pool{workers: workersPer, idle: make(chan *Machine, size)}
	for i := 0; i < size; i++ {
		p.idle <- NewMachine(workersPer)
	}
	return p
}

// Outstanding reports the leases currently held.
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

// Abandoned reports the lifetime count of machines lost to stuck kernels.
func (p *Pool) Abandoned() int64 { return p.abandoned.Load() }

// Lease is one held machine. Exactly one of Release or Abandon must be
// called, exactly once, on every lease — on all paths, including panic paths
// (defer it). The armed drain assertion catches a lease that never settles;
// a second settlement panics here.
type Lease struct {
	p       *Pool
	m       *Machine
	settled atomic.Bool
}

// Machine returns the leased machine. The holder installs its attempt's
// token with SetCancel and runs kernel regions on it.
func (l *Lease) Machine() *Machine { return l.m }

// Acquire leases an idle machine, blocking until one frees up, the token
// fires (ErrAcquireCancelled), or the pool drains (ErrPoolDraining). In gapd
// the wait is the admission-bounded lease queue: admission control
// guarantees it is short, and the query's deadline budget keeps ticking
// while queued.
func (p *Pool) Acquire(tok *CancelToken) (*Lease, error) {
	// An idle machine is leased at once: the poll timer is for waiting.
	if !p.draining.Load() {
		select {
		case m := <-p.idle:
			return p.lease(m), nil
		default:
		}
	}
	timer := time.NewTimer(acquirePollInterval)
	defer timer.Stop()
	for {
		if p.draining.Load() {
			return nil, ErrPoolDraining
		}
		select {
		case m := <-p.idle:
			return p.lease(m), nil
		case <-timer.C:
			if tok.Cancelled() {
				return nil, ErrAcquireCancelled
			}
			timer.Reset(acquirePollInterval)
		}
	}
}

// lease counts m out of the idle set and wraps it.
func (p *Pool) lease(m *Machine) *Lease {
	p.outstanding.Add(1)
	return &Lease{p: p, m: m}
}

// Release returns a healthy machine to the idle set (clearing its cancel
// token first, so the next lease starts clean). During drain the machine is
// closed instead of re-idled.
func (l *Lease) Release() {
	if !l.settled.CompareAndSwap(false, true) {
		panic("par: lease settled twice (Release after Release/Abandon)")
	}
	l.m.SetCancel(nil)
	l.p.restock(l.m)
	l.p.outstanding.Add(-1)
}

// restock puts m in the idle set, or closes it when the pool is draining.
func (p *Pool) restock(m *Machine) {
	if !p.draining.Load() {
		select {
		case p.idle <- m:
			return
		default:
			// Cannot happen while the accounting holds (idle capacity ==
			// size and m was out of the channel), but close rather than
			// block or leak if it ever does.
		}
	}
	m.Close()
}

// Abandon drops a machine whose kernel ignored cancellation past the grace
// period: a replacement machine of the same width enters the idle set
// immediately (other tenants never see a shrunken pool), and a reaper
// goroutine joins the stuck machine's workers whenever the kernel finally
// returns. The stuck kernel keeps the old machine's token installed, so its
// future regions still drain fast if it ever starts polling.
func (l *Lease) Abandon() {
	if !l.settled.CompareAndSwap(false, true) {
		panic("par: lease settled twice (Abandon after Release/Abandon)")
	}
	l.p.abandoned.Add(1)
	m := l.m
	l.p.reapers.Add(1)
	go func() {
		defer l.p.reapers.Done()
		m.Close()
	}()
	if !l.p.draining.Load() {
		l.p.restock(NewMachine(l.p.workers))
	}
	l.p.outstanding.Add(-1)
}

// Drain shuts the pool down: no new leases are granted, machines are closed
// as they come back, and Drain blocks until every lease is settled and every
// abandoned-machine reaper has joined its workers — or the timeout passes.
// On success the outstanding-lease counter is provably zero; in an armed
// build (-tags=check) a leak panics (that assertion is what enforces the
// invariant), otherwise it is returned as an error for the caller to report.
func (p *Pool) Drain(timeout time.Duration) error {
	p.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for p.outstanding.Load() != 0 || len(p.idle) != 0 {
		select {
		case m := <-p.idle:
			m.Close()
			continue
		default:
		}
		if time.Now().After(deadline) {
			n := p.outstanding.Load()
			leaseLeakCheck(n)
			return fmt.Errorf("par: drain timed out with %d lease(s) still outstanding", n)
		}
		time.Sleep(acquirePollInterval)
	}

	// All leases settled; wait out the reapers (bounded when the stuck
	// kernels are — chaos Hangs always return eventually).
	done := make(chan struct{})
	go func() {
		p.reapers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(time.Until(deadline)): // a passed deadline fires at once
		return errors.New("par: drain timed out waiting for abandoned machines to be reaped (kernels still stuck)")
	}
}

// leaseLeakCheck asserts the outstanding-lease count is zero at drain,
// panicking in an armed build: a leaked lease is a machine no future attempt
// can ever use, the pool's analogue of a lost goroutine. Unarmed it does
// nothing; Drain then reports the leak as an ordinary error.
func leaseLeakCheck(outstanding int64) {
	if invariant.Armed() && outstanding != 0 {
		panic(fmt.Sprintf("leasecheck: %d machine lease(s) still outstanding at drain — every Acquire must reach Release or Abandon", outstanding))
	}
}
