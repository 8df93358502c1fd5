package par

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gapbench/internal/invariant"
)

func TestLeaseCheckPanicsOnLeakedLease(t *testing.T) {
	if !invariant.Armed() {
		t.Skip("needs -tags=check")
	}
	p := NewPool(1, 1)
	l, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if pv := recover(); pv == nil || !strings.Contains(pv.(string), "leasecheck: 1 machine lease(s) still outstanding at drain") {
				t.Errorf("armed drain with a leaked lease: recovered %v, want the leasecheck panic", pv)
			}
		}()
		_ = p.Drain(50 * time.Millisecond)
	}()
	l.Release()
	if err := p.Drain(time.Second); err != nil {
		t.Fatalf("drain after settling: %v", err)
	}
}

// TestPoolConcurrentSettle races leases from many goroutines, every fifth
// one abandoned: afterwards no lease is outstanding, every abandonment is
// counted, the pool again holds its full size of machines at its width, and
// the drain joins every reaper.
func TestPoolConcurrentSettle(t *testing.T) {
	const size, width, tenants, rounds = 3, 2, 6, 20
	p := NewPool(size, width)
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l, err := p.Acquire(nil)
				if err != nil {
					t.Error(err)
					return
				}
				l.Machine().For(8, 0, func(int) {})
				if (g*rounds+i)%5 == 0 {
					l.Abandon()
				} else {
					l.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := p.Abandoned(), int64(tenants*rounds/5); got != want || p.Outstanding() != 0 {
		t.Fatalf("Abandoned = %d Outstanding = %d, want %d and 0", got, p.Outstanding(), want)
	}
	var held []*Lease
	for i := 0; i < size; i++ {
		l, err := p.Acquire(NewDeadlineToken(time.Second))
		if err != nil {
			t.Fatalf("idle machine %d of %d: %v", i+1, size, err)
		}
		if l.Machine().Size() != width {
			t.Errorf("machine width %d, want %d", l.Machine().Size(), width)
		}
		held = append(held, l)
	}
	for _, l := range held {
		l.Release()
	}
	if err := p.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
