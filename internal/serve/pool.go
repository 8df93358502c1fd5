package serve

// pool.go keeps the names the lease pool had while it lived here. The pool is
// par.Pool now, the one machine-lease path the daemon and the suite runner
// share; these aliases stay only for callers outside this module's build
// (the benchmark module's lease-cycle probe) and go with its next change.

import "gapbench/internal/par"

// Pool is par.Pool.
//
// Deprecated: use par.Pool.
type Pool = par.Pool

// Lease is par.Lease.
//
// Deprecated: use par.Lease.
type Lease = par.Lease

// NewPool is par.NewPool.
//
// Deprecated: use par.NewPool.
func NewPool(size, workersPer int) *Pool { return par.NewPool(size, workersPer) }
