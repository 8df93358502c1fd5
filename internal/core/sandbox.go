package core

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// Sandbox describes one contained kernel attempt (DESIGN.md §9). The suite
// runner's trials, the daemon's BFS/SSSP queries and its snapshot builds all
// run through RunSandboxed, so a Table IV cell and a served answer are
// leased, contained, timed and failed by one procedure.
type Sandbox struct {
	// Framework, Kernel and Graph name the attempt; every error text starts
	// "GAP BFS on Kron: " (formatted only when one is produced).
	Framework string
	Kernel    Kernel
	Graph     string
	// Token bounds the wait for a lease and is installed on the leased
	// machine for the attempt; the lease's Release clears it, and an
	// abandoned machine keeps it.
	Token *par.CancelToken
	// Deadline is when the caller stops waiting and fires Token; the zero
	// time means wait for as long as the kernel runs. Limit is the nominal
	// duration error texts quote (Deadline may lie closer: a query spends one
	// budget across queueing, retries and backoff).
	Deadline time.Time
	Limit    time.Duration
	// Grace is how long past a fired Deadline the kernel gets to notice the
	// token before the attempt is abandoned.
	Grace time.Duration
	// Seals are the shared graph views that must come out of the kernel
	// byte-identical (checked only under -tags=check; nil entries skip).
	Seals [3]*graph.Graph
}

// fail formats an error text under the attempt's name. The receiver is a
// pointer on purpose: a by-value copy per call site grows the sandbox
// goroutine's frame past its initial stack, and every attempt then pays a
// stack copy (measured: +2 µs a query).
func (sb *Sandbox) fail(format string, args ...any) string {
	return fmt.Sprintf("%s %s on %s: ", sb.Framework, sb.Kernel, sb.Graph) + fmt.Sprintf(format, args...)
}

// Outcome is the result of one sandboxed attempt in the Status taxonomy.
type Outcome struct {
	Status Status
	// Seconds is the wall time of the timed part (zero when it panicked
	// before returning).
	Seconds float64
	// Err carries the panic value, oracle rejection or timeout note; Stack
	// is the trimmed goroutine stack of a Panicked attempt.
	Err   string
	Stack string
	// Abandoned reports that the kernel ignored its fired token past the
	// grace period. The sandbox goroutine (and any worker stuck in the
	// kernel) still owns the machine, with Token left installed so the stray
	// kernel's future regions drain fast if it ever starts polling; the lease
	// was abandoned, so the pool has already replaced the machine.
	Abandoned bool
	// Stats is the leased machine's counters over the attempt (reset before
	// it, read after it); only Workers when the attempt was abandoned.
	Stats par.Stats
}

// TrimStack keeps the head of a panic stack (the frames that identify the
// fault) and drops the scheduler noise below.
func TrimStack(stack []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	const maxLines = 24
	if len(lines) > maxLines {
		lines = append(lines[:maxLines], "... (stack trimmed)")
	}
	return strings.Join(lines, "\n")
}

// RunSandboxed executes one attempt on a machine leased from pool. It
// acquires the machine (returning the acquire error, with nothing run, when
// the pool is draining or Token fired in the queue), then runs the attempt
// and settles the lease: Abandon when the kernel ignored its fired token past
// the grace period, Release otherwise — on every path, so no caller holds a
// lease. run is the timed part — the kernel call on the leased machine — and
// returns the untimed finish (oracle check, reduction to an answer) whose
// error fails the attempt as VerifyFailed. Both execute on a goroutine of
// their own under recover, in this order: run, seal checks, token fired →
// TimedOut with the partial output dropped unverified, finish. A panic at any
// of those steps (a seal check names the corrupted array) is Panicked, so the
// precedence is panic > timeout > verify. The value and outcome reach the
// caller through a buffered channel, never through captured variables: an
// abandoned goroutine that wakes later sends into the buffer and exits
// without touching anything its caller still reads.
func RunSandboxed[T any](pool *par.Pool, sb Sandbox, run func(m *par.Machine) func() (T, error)) (T, Outcome, error) {
	type result struct {
		val T
		out Outcome
	}
	var none T
	lease, err := pool.Acquire(sb.Token)
	if err != nil {
		return none, Outcome{}, err
	}
	abandoned := false
	defer func() {
		if abandoned {
			lease.Abandon()
		} else {
			lease.Release()
		}
	}()
	m := lease.Machine()
	m.ResetStats()
	m.SetCancel(sb.Token)
	done := make(chan result, 1) // buffered: an abandoned sandbox still exits
	go func() {
		var res result
		defer func() {
			if p := recover(); p != nil {
				res = result{out: Outcome{
					Status:  Panicked,
					Seconds: res.out.Seconds,
					Err:     sb.fail("panic: %v", p),
					Stack:   TrimStack(debug.Stack()),
				}}
			}
			done <- res
		}()
		start := time.Now()
		finish := run(m)
		res.out.Seconds = time.Since(start).Seconds()
		for _, g := range sb.Seals {
			g.MustCheckSeal()
		}
		if sb.Token.Cancelled() {
			res.out.Status = TimedOut
			res.out.Err = sb.fail("deadline (%v) exceeded", sb.Limit)
			return
		}
		val, err := finish()
		if err != nil {
			res.out.Status = VerifyFailed
			res.out.Err = sb.fail("%v", err)
			return
		}
		res.val = val
	}()

	// No deadline, no timer: a nil channel never fires. Otherwise one timer
	// to the deadline, then the token, then one timer for the grace period.
	var expire, grace <-chan time.Time
	if !sb.Deadline.IsZero() {
		t := time.NewTimer(time.Until(sb.Deadline))
		defer t.Stop()
		expire = t.C
	}
	for {
		select {
		case res := <-done:
			res.out.Stats = m.Stats()
			return res.val, res.out, nil
		case <-expire:
			sb.Token.Cancel() // idempotent with a deadline token; also covers clock skew on a chained one
			t := time.NewTimer(sb.Grace)
			defer t.Stop()
			expire, grace = nil, t.C
		case <-grace:
			abandoned = true
			return none, Outcome{
				Status:    TimedOut,
				Abandoned: true,
				Stats:     par.Stats{Workers: m.Size()},
				Err: sb.fail("kernel ignored cancellation for %v past the %v deadline; machine abandoned",
					sb.Grace, sb.Limit),
			}, nil
		}
	}
}
