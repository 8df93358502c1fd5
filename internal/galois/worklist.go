// Package galois reproduces the Galois framework the paper evaluates: the
// operator formulation of graph algorithms over concurrent chunked
// worklists. The asynchronous kernels (BFS, SSSP, BC on high-diameter
// graphs) run on one executor, the OBIM-style ordered (priority) scheduler
// ForEachOrdered; the bulk-synchronous ones write their rounds out over a
// bag of chunks. §III-B and §VI credit exactly these mechanisms — sparse
// worklists, asynchronous data-driven execution, Gauss-Seidel in-place
// updates — for Galois' wins on high-diameter graphs, and this package
// implements them rather than imitating their timings.
package galois

import (
	"sync"

	"gapbench/internal/graph"
)

// chunkSize is the granule of work distribution. Galois distributes work in
// fixed-size chunks to amortize queue synchronization; 64 is its common
// default.
const chunkSize = 64

// chunk is one block of pending vertices.
type chunk struct {
	items [chunkSize]graph.NodeID
	n     int
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// newChunk returns an empty chunk from the pool.
func newChunk() *chunk {
	c := chunkPool.Get().(*chunk)
	c.n = 0
	return c
}

// bag is an unordered concurrent collection of chunks (the Galois
// InsertBag / ChunkedFIFO hybrid): producers push full chunks, consumers
// steal whole chunks. A single mutex suffices because contention is once per
// chunkSize items.
type bag struct {
	mu     sync.Mutex
	chunks []*chunk
}

func (b *bag) put(c *chunk) {
	if c.n == 0 {
		return
	}
	b.mu.Lock()
	b.chunks = append(b.chunks, c)
	b.mu.Unlock()
}

func (b *bag) get() *chunk {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.chunks) == 0 {
		return nil
	}
	c := b.chunks[len(b.chunks)-1]
	b.chunks = b.chunks[:len(b.chunks)-1]
	return c
}

func (b *bag) empty() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.chunks) == 0
}
