package galois

import (
	"sync/atomic"
	"testing"

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
	ForEachOrdered(par.Default(), 4, []graph.NodeID{0}, 0, func(ctx *PCtx, v graph.NodeID) {
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
	ForEachOrdered(par.Default(), 1, initial, 5, func(ctx *PCtx, v graph.NodeID) {
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

func TestBagPutGet(t *testing.T) {
	b := &bag{}
	if !b.empty() || b.get() != nil {
		t.Fatal("fresh bag not empty")
	}
	c := chunkPool.Get().(*chunk)
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
	e := chunkPool.Get().(*chunk)
	e.n = 0
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
