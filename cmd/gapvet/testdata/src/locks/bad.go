// Package locks is a gapvet test fixture (never built): it acquires two
// mutexes in opposite orders across functions. Forward only reaches the
// second lock through a helper, so the ABBA inversion is visible only to
// the interprocedural lock graph (lock-order). A second inversion is between
// two struct types that both call their mutex field mu: lock identity must
// include the owning type, or every mu in a package is one lock.
package locks

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
)

// lockB acquires B on behalf of whoever calls it.
func lockB() {
	muB.Lock()
	muB.Unlock()
}

// Forward holds A and reaches B only through lockB.
func Forward() {
	muA.Lock()
	lockB()
	muA.Unlock()
}

// Backward acquires the pair in the opposite order.
func Backward() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

type registry struct {
	mu      sync.Mutex
	entries []*entry
}

type entry struct {
	mu   sync.Mutex
	hits int
}

// Touch takes the registry's mu, then the entry's.
func (r *registry) Touch(e *entry) {
	r.mu.Lock()
	e.mu.Lock()
	e.hits++
	e.mu.Unlock()
	r.mu.Unlock()
}

// Evict takes the same two locks entry-first.
func (e *entry) Evict(r *registry) {
	e.mu.Lock()
	r.mu.Lock()
	r.entries = nil
	r.mu.Unlock()
	e.mu.Unlock()
}
