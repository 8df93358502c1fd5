// Package par provides the parallelism substrate shared by every framework in
// this repository.
//
// The paper runs all frameworks on the same 32-core (64-thread) machine; this
// package is the Go analogue of that machine — literally: all schedules
// execute on a Machine, a persistent pool of parked workers (machine.go).
// Frameworks request a worker count (the Baseline rule set pins it to the
// logical CPU count, the Optimized rule set may raise it to simulate
// hyperthreading) and use the loop helpers for both statically partitioned
// ("NUMA-blocked") and dynamically load-balanced ("work-stealing") parallel
// iteration.
//
// Every schedule is a method on a *Machine. Code that wants observable
// synchronization structure (per-cell region and barrier counts) holds its
// own — kernel.Options carries one — and untimed setup code calls Default().
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers reports the default degree of parallelism: the number of
// logical CPUs available to the process. This mirrors the paper's Baseline
// rule of "each framework used the same number of processors".
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

var (
	defaultOnce    sync.Once
	defaultMachine *Machine
)

// Default returns the lazily built process-default machine, sized to
// DefaultWorkers(). It is never closed; its pool goroutines live for the
// process lifetime (testutil.CheckGoroutines warms it before snapshotting the
// goroutine count for exactly that reason).
func Default() *Machine {
	defaultOnce.Do(func() {
		defaultMachine = NewMachine(DefaultWorkers())
	})
	return defaultMachine
}
