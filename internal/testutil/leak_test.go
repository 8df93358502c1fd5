package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingTB captures Errorf calls so the leak checker's failure path can
// itself be tested.
type recordingTB struct {
	testing.TB // panics on unimplemented methods, which the checker must not call
	errors     []string
}

func (r *recordingTB) Helper() {}
func (r *recordingTB) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

func TestCheckGoroutinesCleanAfterJoin(t *testing.T) {
	check := CheckGoroutines(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done() }()
	}
	wg.Wait()
	check() // joined workers: must not report
}

func TestCheckGoroutinesToleratesSlowUnwind(t *testing.T) {
	check := CheckGoroutines(t)
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond) // still running when check starts
		close(done)
	}()
	check() // must retry until the goroutine exits rather than fail instantly
	<-done
}

// settle waits until the goroutine count has held still for 10 ms, so that
// goroutines of earlier tests (or earlier -count runs) that were still
// unwinding are gone before a count-based baseline is taken: one that exits
// after the baseline would cancel out the leak the test plants.
func settle() {
	n := runtime.NumGoroutine()
	for still := 0; still < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
}

func TestCheckGoroutinesReportsLeak(t *testing.T) {
	settle()
	rec := &recordingTB{}
	check := checkGoroutines(rec, 50*time.Millisecond)
	block := make(chan struct{})
	go func() { <-block }()
	check()
	close(block)
	if len(rec.errors) != 1 || !strings.Contains(rec.errors[0], "goroutine leak") {
		t.Fatalf("expected one leak report, got %v", rec.errors)
	}
}
