package serve

// The lease pool is par.Pool; these tests drive it through the deprecated
// serve names the benchmark module's lease-cycle probe still calls, and move
// to internal/par when those names go (ROADMAP item 3). The armed leak check
// is tested beside it, in internal/par.

import (
	"errors"
	"testing"
	"time"

	"gapbench/internal/invariant"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

func TestPoolAcquireReleaseCycle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p := NewPool(2, 1)
	defer func() {
		if err := p.Drain(2 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}()

	l1, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Outstanding(); got != 2 {
		t.Errorf("Outstanding = %d, want 2", got)
	}
	if l1.Machine() == l2.Machine() {
		t.Error("two concurrent leases share one machine")
	}

	// A third acquire must block until a release, and then get a machine.
	got := make(chan *Lease, 1)
	go func() {
		l, err := p.Acquire(nil)
		if err != nil {
			t.Error(err)
		}
		got <- l
	}()
	select {
	case <-got:
		t.Fatal("Acquire returned with the pool exhausted")
	case <-time.After(20 * time.Millisecond):
	}
	l1.Release()
	select {
	case l3 := <-got:
		l3.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not wake after Release")
	}
	l2.Release()
	if got := p.Outstanding(); got != 0 {
		t.Errorf("Outstanding after releases = %d, want 0", got)
	}
}

func TestPoolAcquireCancelledWhileQueued(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p := NewPool(1, 1)
	l, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	tok := par.NewDeadlineToken(20 * time.Millisecond)
	if _, err := p.Acquire(tok); !errors.Is(err, par.ErrAcquireCancelled) {
		t.Fatalf("queued Acquire with fired token: err = %v, want ErrAcquireCancelled", err)
	}
	l.Release()
	if err := p.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPoolAbandonSelfHeals(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p := NewPool(1, 3)
	l, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	if got := p.Abandoned(); got != 1 {
		t.Errorf("Abandoned = %d, want 1", got)
	}
	// The replacement must be available immediately and inherit the pool's
	// worker width.
	done := make(chan *Lease, 1)
	go func() {
		l2, err := p.Acquire(nil)
		if err != nil {
			t.Error(err)
		}
		done <- l2
	}()
	select {
	case l2 := <-done:
		if got := l2.Machine().Stats().Workers; got != 3 {
			t.Errorf("replacement machine workers = %d, want 3", got)
		}
		l2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("no replacement machine after Abandon")
	}
	if err := p.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain after abandon: %v", err)
	}
}

func TestPoolDoubleSettlePanics(t *testing.T) {
	p := NewPool(1, 1)
	l, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
		if err := p.Drain(2 * time.Second); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	l.Release()
}

func TestPoolDrainRefusesNewLeases(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p := NewPool(1, 1)
	if err := p.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire(nil); !errors.Is(err, par.ErrPoolDraining) {
		t.Fatalf("Acquire on drained pool: err = %v, want ErrPoolDraining", err)
	}
}

func TestPoolDrainReportsLeakedLease(t *testing.T) {
	if invariant.Armed() {
		t.Skip("armed build: a leaked lease panics instead of erroring")
	}
	p := NewPool(1, 1)
	l, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("Drain with an outstanding lease reported success")
	}
	l.Release() // settle so workers are joined (Release during drain closes)
	if err := p.Drain(time.Second); err != nil {
		t.Fatalf("drain after settling: %v", err)
	}
}

func TestPoolReleaseDuringDrainCloses(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p := NewPool(2, 1)
	l, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- p.Drain(2 * time.Second) }()
	time.Sleep(10 * time.Millisecond) // let Drain set the flag and start pulling idle
	l.Release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := p.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d, want 0", got)
	}
}
