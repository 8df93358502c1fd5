// Package galois is a gapvet test fixture (never built): it violates the
// framework-isolation and par-closure-race rules on purpose, and carries one
// justified suppression to exercise the //gapvet:ignore path.
package galois

import (
	"gapbench/internal/gap"
	"gapbench/internal/par"
	"sync"
	"sync/atomic"
)

// CrossImport leans on another framework's constructor, which the isolation
// rule must flag.
func CrossImport() any { return gap.New() }

// RacySum accumulates into a captured variable from a par closure.
func RacySum(exec *par.Machine, xs []int64) int64 {
	var total int64
	exec.For(len(xs), 0, func(i int) {
		total += xs[i]
	})
	return total
}

// JustifiedSum shows the suppression form; this finding must NOT appear in
// the golden output.
func JustifiedSum(exec *par.Machine, xs []int64) int64 {
	var total int64
	exec.For(len(xs), 1, func(i int) {
		total += xs[i] //gapvet:ignore par-closure-race -- fixture: single worker, sequential by construction
	})
	return total
}

// Claim marks cells via CAS from one goroutine while reset clears them
// plainly from another: the plain path is only reachable through the call
// graph, the cross-function atomic-plain-mix case.
func Claim(state []int32) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range state {
			atomic.CompareAndSwapInt32(&state[i], 0, 1)
		}
	}()
	go func() {
		defer wg.Done()
		reset(state)
	}()
	wg.Wait()
}

// reset looks sequential on its own: no go statement, no par closure.
func reset(state []int32) {
	for i := range state {
		state[i] = 0
	}
}
