package par

// machine.go is the persistent worker-pool "machine" behind every schedule in
// this package. The paper charges per-iteration kernel-launch overhead to
// GraphBLAS on high-diameter graphs and credits Galois' persistent-thread
// executor for winning Road (§V-A, Table V); a Road BFS runs thousands of
// rounds, and an implementation that forks and joins fresh goroutines per
// round pays Go's spawn cost thousands of times, conflating substrate cost
// with the framework structure the paper actually measures. The Machine
// removes that confound: workers are created once, park on a channel, and are
// woken per region — no goroutine creation after construction. The
// fork-join-vs-pool difference itself is measured by
// BenchmarkAblationRegionLaunch (DESIGN.md §6, item 8).
//
// Execution model: one region = one parallel loop (a For/Reduce call). The
// submitting goroutine publishes wake tokens to the pool, then participates
// itself, so a machine of size W yields W-way parallelism using W-1 parked
// workers plus the caller. Work inside a region is claimed by *slot*: every
// participant atomically claims participant-ids until none remain, so a
// region is guaranteed to complete even when every pool worker is busy — the
// submitter just executes all slots itself. That property makes region
// submission safe from any goroutine, including (accidentally) from inside
// another region; nested submission degrades toward serial execution instead
// of deadlocking.
//
// Stats: the machine counts regions launched, serial (inline) regions,
// barrier crossings (one per participant share per region) and dynamic chunks
// dispatched. Barrier counts are sharded per pool worker (plus one submitter
// shard) on padded cache lines; region-level counters are single atomics
// bumped once per region, so the cost when nobody reads Stats() is a handful
// of uncontended atomic adds per region — noise next to the channel wake
// itself.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Machine is a persistent pool of parked workers executing parallel regions.
// The zero value is not usable; construct with NewMachine. All methods are
// safe for concurrent use by multiple submitting goroutines; regions
// submitted concurrently share the pool and serialize only on worker
// availability. Close releases the workers (see Close for the rules).
type Machine struct {
	size int
	// work is the wake channel: dispatch publishes one token per worker it
	// wants woken; parked workers block on it. Buffered to size so waking
	// never blocks the submitter (a full buffer means every worker already
	// has wake-ups pending and more tokens would be stale anyway).
	work   chan *region
	wg     sync.WaitGroup
	closed atomic.Bool

	// Region-level counters: bumped once per region (not per element), so
	// they stay off the hot path.
	regions       atomic.Int64
	serialRegions atomic.Int64
	chunks        atomic.Int64

	// shards hold the per-worker barrier counters; index size is the
	// submitter shard (dispatch participates on the caller's goroutine).
	shards []shard

	// cancel is the region-scoped cancellation token (cancel.go). Regions
	// capture it at dispatch and poll it at slot/chunk boundaries; nil (the
	// common case) costs one atomic pointer load per region.
	cancel atomic.Pointer[CancelToken]
}

// shard is one cache-line-padded counter block. 64 bytes covers the
// destructive-interference range on the amd64/arm64 hosts this runs on.
type shard struct {
	barriers atomic.Int64
	_        [56]byte
}

// Stats is a snapshot of a machine's synchronization structure — the
// observable counterpart of the paper's launch-overhead argument. One region
// is one parallel loop; one barrier crossing is one participant share joining
// at a region's end; one chunk is one dynamic work unit handed out by a
// ForDynamic/ReduceDynamicInt64 counter.
type Stats struct {
	// Workers is the machine's construction-time parallelism (pool workers
	// plus the submitting goroutine).
	Workers int
	// Regions counts every schedule invocation that had work (n > 0),
	// including the serial ones.
	Regions int64
	// SerialRegions counts regions run inline on the submitter with no
	// worker wake-up (effective width 1).
	SerialRegions int64
	// Barriers counts participant shares joined at region barriers; a
	// parallel region with k participants contributes k.
	Barriers int64
	// Chunks counts dynamically dispatched work chunks.
	Chunks int64
}

// EffectiveWorkers reports the mean participant count over parallel regions
// (0 when no parallel region ran).
func (s Stats) EffectiveWorkers() float64 {
	parallel := s.Regions - s.SerialRegions
	if parallel <= 0 {
		return 0
	}
	return float64(s.Barriers) / float64(parallel)
}

// NewMachine builds a machine with the given total parallelism: workers-1
// parked pool goroutines plus the submitting caller. workers < 1 means
// DefaultWorkers(). This is the only point at which the machine creates
// goroutines.
func NewMachine(workers int) *Machine {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	m := &Machine{
		size: workers,
		//gapvet:ignore alloc-in-timed-region -- machine construction is setup: it runs once per pool (lazily for Default), never per region
		work: make(chan *region, workers),
		//gapvet:ignore alloc-in-timed-region -- same: one shard array per machine, allocated at construction
		shards: make([]shard, workers+1),
	}
	m.wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go m.worker(w)
	}
	return m
}

// Size returns the machine's total parallelism (pool workers + submitter).
func (m *Machine) Size() int { return m.size }

// Close parks the machine permanently: the wake channel is closed and every
// pool worker exits (joined before Close returns, so a leak checker sees the
// goroutine count fall). Close must not race with region submission; regions
// submitted after Close run serially on the caller rather than panicking, so
// a closed machine degrades to a correct serial executor. The process-default
// machine is never closed.
func (m *Machine) Close() {
	if m.closed.CompareAndSwap(false, true) {
		close(m.work)
	}
	m.wg.Wait()
}

// ResetStats zeroes the counters (between benchmark cells).
func (m *Machine) ResetStats() {
	m.regions.Store(0)
	m.serialRegions.Store(0)
	m.chunks.Store(0)
	for i := range m.shards {
		m.shards[i].barriers.Store(0)
	}
}

// Stats snapshots the counters. The snapshot is not atomic across fields;
// callers read it between regions (the Runner reads it between cells).
func (m *Machine) Stats() Stats {
	s := Stats{
		Workers:       m.size,
		Regions:       m.regions.Load(),
		SerialRegions: m.serialRegions.Load(),
		Chunks:        m.chunks.Load(),
	}
	for i := range m.shards {
		s.Barriers += m.shards[i].barriers.Load()
	}
	return s
}

// worker is one parked pool goroutine: it sleeps on the wake channel and
// participates in whatever region each token names. Tokens can be stale (the
// region may have completed by the time the worker wakes); participate then
// claims nothing and the worker parks again.
func (m *Machine) worker(id int) {
	defer m.wg.Done()
	for r := range m.work {
		//gapvet:ignore inline-miss -- participate runs once per dispatched region (its body loops over the region's slots); call overhead is region setup, not per-element cost
		r.participate(&m.shards[id])
	}
}

// region is one parallel loop execution: a body invoked once per slot in
// [0, active), slots claimed atomically by participants.
type region struct {
	body   func(slot int)
	active int32
	cancel *CancelToken // region-scoped cancellation; nil means none
	next   atomic.Int32 // next unclaimed slot
	joined atomic.Int32 // completed slots; the last one closes done
	done   chan struct{}

	mu       sync.Mutex
	panicked bool
	panicVal any
}

// participate claims and runs slots until none remain, crediting barrier
// crossings to the given shard.
func (r *region) participate(sh *shard) {
	var took int64
	for {
		slot := r.next.Add(1) - 1
		if slot >= r.active {
			break
		}
		took++
		r.runSlot(int(slot))
	}
	if took > 0 {
		sh.barriers.Add(took)
	}
}

// runSlot executes one slot, capturing a panic instead of letting it kill a
// pool worker, and always joins the barrier so the region cannot deadlock. A
// cancelled region skips the body but still joins, which is what lets a
// deadline drain a multi-slot region without anyone waiting forever.
func (r *region) runSlot(slot int) {
	defer func() {
		if p := recover(); p != nil {
			r.mu.Lock()
			if !r.panicked {
				r.panicked, r.panicVal = true, p
			}
			r.mu.Unlock()
		}
		if r.joined.Add(1) == r.active {
			close(r.done)
		}
	}()
	if r.cancel.Cancelled() {
		return
	}
	r.body(slot)
}

// rethrow surfaces a captured region panic on the submitting goroutine. The
// original panic value is preserved so recover-based callers see what the
// body threw; the machine provenance travels in the wrapper only when the
// value was not already an error or string a caller might match on.
func (r *region) rethrow() {
	r.mu.Lock()
	p, ok := r.panicVal, r.panicked
	r.mu.Unlock()
	if ok {
		panic(p)
	}
}

// clamp normalizes a requested region width exactly like the historical
// clampWorkers: < 1 means the machine's size, and a region never uses more
// slots than it has iterations. The result may exceed the pool size —
// participants then execute several slots each, preserving the slot-indexed
// semantics (ForWorker ids, ForCyclic strides) that callers size their
// per-worker state by.
func (m *Machine) clamp(workers, n int) int {
	if workers < 1 {
		workers = m.size
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// dispatch runs body(slot) for every slot in [0, active) across the pool and
// the calling goroutine, returning after every slot has joined the barrier.
func (m *Machine) dispatch(active int, body func(slot int)) {
	//gapvet:ignore alloc-in-timed-region -- one completion channel per region, amortized over the region's work (same class as the per-phase func-literal exemption)
	r := &region{body: body, active: int32(active), cancel: m.cancel.Load(), done: make(chan struct{})}
	m.regions.Add(1)
	if m.closed.Load() {
		// Graceful after-Close degradation: the pool is gone, so the caller
		// runs every slot itself (still one region, still a correct result).
		r.participate(&m.shards[m.size])
		<-r.done
		r.rethrow()
		return
	}
	wake := active - 1
	if wake > m.size-1 {
		wake = m.size - 1
	}
	for i := 0; i < wake; i++ {
		select {
		case m.work <- r:
		default:
			// Wake buffer full: every worker already has pending wake-ups.
			// Remaining slots are covered by the submitter and by workers
			// finishing earlier regions, so dropping tokens is safe.
			i = wake
		}
	}
	r.participate(&m.shards[m.size])
	<-r.done
	r.rethrow()
}

// serial accounts for an inline region (width 1) and runs nothing itself.
func (m *Machine) serial() {
	m.regions.Add(1)
	m.serialRegions.Add(1)
}

// ---------------------------------------------------------------------------
// Schedules. workers < 1 means the machine's size (see clamp).

// For runs fn(i) for every i in [0, n) using statically partitioned
// contiguous blocks, one per slot. With a cancel token installed the loop
// polls every cancelStride indices, so even one huge block reacts to a
// deadline (slot-boundary checks alone would be too coarse here).
func (m *Machine) For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	tok := m.cancel.Load()
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		for i := 0; i < n; i++ {
			if tok != nil && i&(cancelStride-1) == 0 && tok.Cancelled() {
				return
			}
			fn(i)
		}
		return
	}
	m.dispatch(active, func(slot int) {
		lo, hi := slot*n/active, (slot+1)*n/active
		for i := lo; i < hi; i++ {
			if tok != nil && i&(cancelStride-1) == 0 && tok.Cancelled() {
				return
			}
			fn(i)
		}
	})
}

// ForBlocked runs fn(lo, hi) over statically partitioned contiguous ranges,
// one per slot. Every static range is non-empty: clamp guarantees
// active <= n, and i*n/active is strictly monotone in i when active <= n.
func (m *Machine) ForBlocked(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		if m.cancel.Load().Cancelled() {
			return
		}
		fn(0, n)
		return
	}
	m.dispatch(active, func(slot int) {
		fn(slot*n/active, (slot+1)*n/active)
	})
}

// ForDynamic runs fn(lo, hi) over chunks of the given size handed out from a
// shared atomic counter (the dynamically load-balanced schedule).
func (m *Machine) ForDynamic(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	tok := m.cancel.Load()
	active := m.clamp(workers, (n+chunk-1)/chunk)
	if active == 1 {
		m.serial()
		if tok.Cancelled() {
			return
		}
		m.chunks.Add(1)
		fn(0, n)
		return
	}
	//gapvet:ignore closure-capture-hot -- one work-stealing cursor per dynamic region: the cell is the region's shared state, amortized over all its chunks
	var next atomic.Int64
	counts := make([]int64, active)
	m.dispatch(active, func(slot int) {
		var c int64
		for {
			if tok.Cancelled() {
				break
			}
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			c++
			fn(lo, hi)
		}
		counts[slot] = c
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	m.chunks.Add(total)
}

// ForCyclic runs fn(worker, i) with indices distributed cyclically: slot w
// handles i = w, w+active, w+2*active, ...
func (m *Machine) ForCyclic(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	tok := m.cancel.Load()
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		for i := 0; i < n; i++ {
			if tok != nil && i&(cancelStride-1) == 0 && tok.Cancelled() {
				return
			}
			fn(0, i)
		}
		return
	}
	m.dispatch(active, func(slot int) {
		for c, i := 0, slot; i < n; c, i = c+1, i+active {
			if tok != nil && c&(cancelStride-1) == 0 && tok.Cancelled() {
				return
			}
			fn(slot, i)
		}
	})
}

// ForWorker runs fn once per slot with that slot's id and statically
// assigned range — the building block for kernels with per-thread state.
func (m *Machine) ForWorker(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		if m.cancel.Load().Cancelled() {
			return
		}
		fn(0, 0, n)
		return
	}
	m.dispatch(active, func(slot int) {
		fn(slot, slot*n/active, (slot+1)*n/active)
	})
}

// ReduceInt64 computes the sum of fn(lo, hi) over statically partitioned
// ranges, one partial per slot, combined serially after the barrier.
func (m *Machine) ReduceInt64(n, workers int, fn func(lo, hi int) int64) int64 {
	if n <= 0 {
		return 0
	}
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		if m.cancel.Load().Cancelled() {
			return 0
		}
		return fn(0, n)
	}
	partial := make([]int64, active)
	m.dispatch(active, func(slot int) {
		partial[slot] = fn(slot*n/active, (slot+1)*n/active)
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	return total
}

// ReduceFloat64 is ReduceInt64 for float64 partials.
func (m *Machine) ReduceFloat64(n, workers int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	active := m.clamp(workers, n)
	if active == 1 {
		m.serial()
		if m.cancel.Load().Cancelled() {
			return 0
		}
		return fn(0, n)
	}
	partial := make([]float64, active)
	m.dispatch(active, func(slot int) {
		partial[slot] = fn(slot*n/active, (slot+1)*n/active)
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	return total
}

// ReduceDynamicInt64 is ReduceInt64 with dynamically scheduled chunks.
func (m *Machine) ReduceDynamicInt64(n, chunk, workers int, fn func(lo, hi int) int64) int64 {
	if n <= 0 {
		return 0
	}
	if chunk < 1 {
		chunk = 1
	}
	tok := m.cancel.Load()
	active := m.clamp(workers, (n+chunk-1)/chunk)
	if active == 1 {
		m.serial()
		if tok.Cancelled() {
			return 0
		}
		m.chunks.Add(1)
		return fn(0, n)
	}
	var next atomic.Int64
	partial := make([]int64, active)
	counts := make([]int64, active)
	m.dispatch(active, func(slot int) {
		var local, c int64
		for {
			if tok.Cancelled() {
				break
			}
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			c++
			local += fn(lo, hi)
		}
		partial[slot] = local
		counts[slot] = c
	})
	var total, totalChunks int64
	for slot := 0; slot < active; slot++ {
		total += partial[slot]
		totalChunks += counts[slot]
	}
	m.chunks.Add(totalChunks)
	return total
}

// String identifies the machine in logs and test failures.
func (m *Machine) String() string {
	return fmt.Sprintf("par.Machine(workers=%d)", m.size)
}
