package galois

import (
	"sync/atomic"
	"testing"
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

func TestForEachOrderedQuiescence(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// A diamond of pushes with duplicate paths, guarded the way real
	// relaxation operators are: only the first claim of an item pushes its
	// successors. All items must be claimed and the executor must reach
	// quiescence.
	const limit = 2000
	claimed := make([]int32, limit+2)
	claim := func(v graph.NodeID) bool {
		return atomic.CompareAndSwapInt32(&claimed[v], 0, 1)
	}
	claim(0)
	m := par.NewMachine(4)
	defer m.Close()
	ForEachOrdered(m, []graph.NodeID{0}, 0, func(ctx *PCtx, v graph.NodeID) {
		if v >= limit {
			return
		}
		if claim(v + 1) {
			ctx.Push(v+1, int(v+1))
		}
		if v%3 == 0 && claim(v+2) {
			ctx.Push(v+2, int(v+2)) // duplicate path
		}
	})
	for v := graph.NodeID(0); v <= limit; v++ {
		if claimed[v] == 0 {
			t.Fatalf("item %d never claimed", v)
		}
	}
}

func TestForEachOrderedApproximatePriority(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// Single worker: strictly local-first in ascending priority. Seed two
	// priorities and confirm the low one runs first.
	var order []graph.NodeID
	initial := []graph.NodeID{100} // priority 0 seeds item "100"
	m := par.NewMachine(1)
	defer m.Close()
	ForEachOrdered(m, initial, 5, func(ctx *PCtx, v graph.NodeID) {
		order = append(order, v)
		if v == 100 {
			ctx.Push(1, 1) // lower priority than the seed's 5
			ctx.Push(9, 9)
		}
	})
	if len(order) != 3 || order[0] != 100 || order[1] != 1 || order[2] != 9 {
		t.Fatalf("order = %v, want [100 1 9]", order)
	}
}

// TestForEachOrderedTerminates runs a binary tree of pushes, many items per
// priority level so full chunks spill and get stolen, at several widths:
// every item runs exactly once and the executor returns, so the pending
// count settled once per chunk neither stops early nor stays above zero.
func TestForEachOrderedTerminates(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const limit = 1 << 15
	for _, workers := range []int{1, 2, 7} {
		m := par.NewMachine(workers)
		runs := make([]int32, limit)
		ForEachOrdered(m, []graph.NodeID{0}, 0, func(ctx *PCtx, v graph.NodeID) {
			atomic.AddInt32(&runs[v], 1)
			for _, w := range []graph.NodeID{2*v + 1, 2*v + 2} {
				if w < limit {
					ctx.Push(w, treeDepth(w))
				}
			}
		})
		m.Close()
		for v, n := range runs {
			if n != 1 {
				t.Fatalf("%d workers: item %d ran %d times, want once", workers, v, n)
			}
		}
	}
}

// treeDepth is v's depth in the binary tree of TestForEachOrderedTerminates.
func treeDepth(v graph.NodeID) int {
	d := 0
	for ; v > 0; v = (v - 1) / 2 {
		d++
	}
	return d
}

// TestForEachOrderedCancellation gives the executor work that never drains:
// it must return once the machine's token fires, every worker leaving at its
// next chunk boundary.
func TestForEachOrderedCancellation(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	m := par.NewMachine(4)
	defer m.Close()
	tok := par.NewDeadlineToken(20 * time.Millisecond)
	m.SetCancel(tok)
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForEachOrdered(m, []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0, func(ctx *PCtx, v graph.NodeID) {
			ran.Add(1)
			ctx.Push(v+8, int(v/8)%100)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the executor ignored its machine's cancellation")
	}
	if !tok.Cancelled() || ran.Load() == 0 {
		t.Fatalf("returned with token cancelled=%t after %d items", tok.Cancelled(), ran.Load())
	}
}

func TestBagPutGet(t *testing.T) {
	b := &bag{}
	if !b.empty() || b.get() != nil {
		t.Fatal("fresh bag not empty")
	}
	c := newChunk()
	c.n = 1
	c.items[0] = 7
	b.put(c)
	if b.empty() {
		t.Fatal("bag empty after put")
	}
	got := b.get()
	if got == nil || got.items[0] != 7 {
		t.Fatal("get returned wrong chunk")
	}
	got.n = 0
	chunkPool.Put(got)
	// Empty chunks are dropped silently.
	e := newChunk()
	b.put(e)
	if !b.empty() {
		t.Fatal("empty chunk stored")
	}
}

func TestPackUnpack(t *testing.T) {
	for _, c := range []struct {
		d int32
		p graph.NodeID
	}{{0, 0}, {5, 42}, {1 << 29, -1}, {7, 1<<31 - 1}} {
		s := pack(c.d, c.p)
		if depthOf(s) != c.d || parentOf(s) != c.p {
			t.Fatalf("pack(%d,%d) round trip gave (%d,%d)", c.d, c.p, depthOf(s), parentOf(s))
		}
	}
}
