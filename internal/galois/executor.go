package galois

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// PCtx is the push context for the ordered executor; pushes carry a priority
// (lower runs earlier, best-effort).
type PCtx struct {
	exec  *obim
	local map[int]*chunk
}

// Push schedules v at the given priority level. Full chunks spill to the
// shared level bags (becoming stealable); the partial chunk per priority
// stays worker-local and is processed locally in priority order — the
// locality that lets one worker race down a high-diameter graph with no
// synchronization at all while others help whenever chunks spill.
func (c *PCtx) Push(v graph.NodeID, priority int) {
	c.exec.pending.Add(1)
	lc := c.local[priority]
	if lc == nil {
		lc = chunkPool.Get().(*chunk)
		lc.n = 0
		c.local[priority] = lc
	}
	lc.items[lc.n] = v
	lc.n++
	if lc.n == chunkSize {
		c.exec.level(priority).put(lc)
		delete(c.local, priority)
	}
}

// popLowestLocal removes and returns the worker's lowest-priority local
// chunk, or nil.
func (c *PCtx) popLowestLocal() *chunk {
	best := -1
	for p, lc := range c.local {
		if lc.n == 0 {
			continue
		}
		if best < 0 || p < best {
			best = p
		}
	}
	if best < 0 {
		return nil
	}
	lc := c.local[best]
	delete(c.local, best)
	return lc
}

// obim is the ordered-by-integer-metric scheduler: one bag per priority
// level, workers always draining the lowest non-empty level they can find.
// Like Galois' OBIM it is best-effort — out-of-order execution is possible
// and the operators tolerate it (label-correcting relaxations).
type obim struct {
	mu      sync.Mutex
	levels  []*bag
	minHint atomic.Int64
	pending atomic.Int64
}

func (o *obim) level(p int) *bag {
	o.mu.Lock()
	for p >= len(o.levels) {
		//gapvet:ignore escape-in-kernel -- one bag per priority level for the scheduler's lifetime; the slice only grows
		o.levels = append(o.levels, &bag{})
	}
	b := o.levels[p]
	o.mu.Unlock()
	if int64(p) < o.minHint.Load() {
		o.minHint.Store(int64(p)) // benign race: a hint, not an invariant
	}
	return b
}

// next returns a chunk from the lowest non-empty shared level. The level
// slice is snapshotted under one lock; the per-level bags have their own
// locks, so idle workers probing for work do not serialize the workers that
// are producing it.
func (o *obim) next() *chunk {
	start := o.minHint.Load()
	if start < 0 {
		start = 0
	}
	o.mu.Lock()
	levels := o.levels
	o.mu.Unlock()
	for p := int(start); p < len(levels); p++ {
		if c := levels[p].get(); c != nil {
			o.minHint.Store(int64(p))
			return c
		}
	}
	// Nothing found from the hint onward; rescan from zero once.
	if start > 0 {
		o.minHint.Store(0)
		return o.next()
	}
	return nil
}

// ForEachOrdered runs op over work in approximate priority order: the OBIM
// executor behind Galois' asynchronous BFS, SSSP, and BC. Each worker
// prefers its own lowest-priority partial chunk (no synchronization), then
// steals from the shared levels; spilled full chunks keep the other workers
// fed. Quiescence is detected with a global outstanding-work counter.
func ForEachOrdered(exec *par.Machine, workers int, initial []graph.NodeID, initialPriority int, op func(ctx *PCtx, v graph.NodeID)) {
	if workers < 1 {
		workers = 1
	}
	o := &obim{}
	seedCtx := &PCtx{exec: o, local: map[int]*chunk{}}
	for _, v := range initial {
		seedCtx.Push(v, initialPriority)
	}
	seedCtx.flushAll()

	// Cooperative cancellation: every worker checks the machine's token at
	// its chunk-claim boundary. One worker bailing early leaves pending > 0
	// forever, so the token is the *only* way the others exit — each one
	// observes it either at the loop top or in the idle branch.
	tok := exec.CancelToken()
	exec.ForWorker(workers, workers, func(_, _, _ int) {
		ctx := &PCtx{exec: o, local: map[int]*chunk{}}
		idle := 0
		for {
			if tok.Cancelled() {
				break
			}
			c := ctx.popLowestLocal()
			if c == nil {
				c = o.next()
				if c == nil {
					if o.pending.Load() == 0 {
						break
					}
					// Exponential backoff keeps idle workers from
					// hammering the scheduler while one worker races
					// down a long dependence chain (Road).
					idle++
					if idle > 16 {
						time.Sleep(time.Duration(min(idle, 200)) * time.Microsecond)
					} else {
						runtime.Gosched()
					}
					continue
				}
			}
			idle = 0
			n := c.n
			for i := 0; i < n; i++ {
				op(ctx, c.items[i])
			}
			o.pending.Add(-int64(n))
			c.n = 0
			chunkPool.Put(c)
		}
	})
}

// flushAll spills every partial local chunk to the shared levels.
func (c *PCtx) flushAll() {
	for p, lc := range c.local {
		if lc.n > 0 {
			c.exec.level(p).put(lc)
		} else {
			chunkPool.Put(lc)
		}
		delete(c.local, p)
	}
}
