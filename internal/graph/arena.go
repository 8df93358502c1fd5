package graph

import (
	"fmt"
	"unsafe"
)

// arena.go: the single storage block behind a Graph's CSR views.
//
// A CSR graph is six arrays (out/in index, neighbors, weights), but it is one
// *object*: the arrays are built together, sealed together, and retired
// together. The Arena makes that physical — one contiguous byte block with
// the six arrays carved out as typed views at 64-byte-aligned offsets, in a
// fixed section order shared with the format-v2 serialized file (io_v2.go).
// Two backends provide the block:
//
//   - heap: one make([]byte) per graph, written by the counting-sort ingest
//     pipeline (builder.go). Reclaimed by the GC like any allocation.
//   - mmap: a read-only memory map of a format-v2 file. Loading is O(header)
//     — the section offsets in the file are the arena offsets, so the views
//     are carved straight out of the mapping and no byte is copied or even
//     faulted in until a kernel touches it.
//
// Because the in-memory layout and the on-disk layout are the same function
// (layoutFor), serialization of a heap arena is a header plus one contiguous
// write, and deserialization of a v2 file is a map plus pointer arithmetic.
//
// The views alias one block, so the lifetime rules sharpen: Graph.Close
// releases the arena (unmapping it for the mmap backend), and no
// graph-derived slice may be retained past it. gapvet's arena-escape rule
// (internal/analysis) proves that statically at the call sites it can see;
// Close also poisons the graph's own views (nils them) so a stale *Graph
// fails with a Go panic rather than a fault on an unmapped page.

// arenaAlign is the section alignment: one cache line, so no two sections
// share a line and SIMD-friendly loads never straddle a section boundary.
// File section offsets inherit it (the 256-byte header is 64-aligned and maps
// are page-aligned), which is what makes the mmap views legal []int64s.
const arenaAlign = 64

// Section indices, in arena/file order. The out-CSR comes first so the
// undirected case (no in-sections) is a pure prefix of the directed one.
const (
	secOutIndex = iota
	secOutNeigh
	secOutWeight
	secInIndex
	secInNeigh
	secInWeight
	numSections
)

// arenaLayout is the section map of one arena: byte offsets and sizes for
// the six sections, derived deterministically from the graph shape. The same
// layout describes the heap block and the body of a format-v2 file.
type arenaLayout struct {
	n         int32
	mOut, mIn int64
	directed  bool
	weighted  bool
	off, size [numSections]int64
	total     int64
}

func align64(x int64) int64 { return (x + arenaAlign - 1) &^ (arenaAlign - 1) }

// layoutFor computes the canonical section layout for a graph shape.
// Undirected graphs store no in-sections (the views alias the out-side);
// unweighted graphs store no weight sections.
func layoutFor(n int32, mOut, mIn int64, directed, weighted bool) arenaLayout {
	lay := arenaLayout{n: n, mOut: mOut, mIn: mIn, directed: directed, weighted: weighted}
	add := func(sec int, bytes int64) {
		lay.off[sec] = lay.total
		lay.size[sec] = bytes
		lay.total = align64(lay.total + bytes)
	}
	add(secOutIndex, 8*(int64(n)+1))
	add(secOutNeigh, 4*mOut)
	if weighted {
		add(secOutWeight, 4*mOut)
	} else {
		add(secOutWeight, 0)
	}
	if directed {
		add(secInIndex, 8*(int64(n)+1))
		add(secInNeigh, 4*mIn)
		if weighted {
			add(secInWeight, 4*mIn)
		} else {
			add(secInWeight, 0)
		}
	} else {
		add(secInIndex, 0)
		add(secInNeigh, 0)
		add(secInWeight, 0)
	}
	return lay
}

// Arena is one graph's storage block. The zero value is not useful; arenas
// are created by newHeapArena (builder paths) or the format-v2 loader.
type Arena struct {
	lay arenaLayout
	// data is the live block the views point into. For the mmap backend it
	// is the mapping minus the file header; for the heap backend it is a
	// 64-aligned sub-slice of one allocation.
	data []byte
	// mapped is the full kernel mapping to hand back to munmap; nil for the
	// heap backend.
	mapped []byte
}

// newHeapArena allocates one zeroed block sized and aligned for the layout.
func newHeapArena(lay arenaLayout) *Arena {
	buf := make([]byte, lay.total+arenaAlign)
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	skew := (arenaAlign - int64(base%arenaAlign)) % arenaAlign
	return &Arena{lay: lay, data: buf[skew : skew+lay.total]}
}

// Mapped reports whether the arena is a read-only memory map (as opposed to
// writable heap memory).
func (a *Arena) Mapped() bool { return a != nil && a.mapped != nil }

// Size returns the arena's payload size in bytes.
func (a *Arena) Size() int64 {
	if a == nil {
		return 0
	}
	return a.lay.total
}

// int64s carves the typed view of an 8-byte-element section; nil when the
// section is absent.
func (a *Arena) int64s(sec int) []int64 {
	if a.lay.size[sec] == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&a.data[a.lay.off[sec]])), a.lay.size[sec]/8)
}

// int32s carves the typed view of a 4-byte-element section; nil when the
// section is absent.
func (a *Arena) int32s(sec int) []int32 {
	if a.lay.size[sec] == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&a.data[a.lay.off[sec]])), a.lay.size[sec]/4)
}

// close releases the backing storage: munmap for the mmap backend, dropping
// the reference (and letting the GC collect) for the heap backend.
func (a *Arena) close() error {
	if a == nil {
		return nil
	}
	m := a.mapped
	a.mapped, a.data = nil, nil
	if m != nil {
		return munmapBytes(m)
	}
	return nil
}

// graphFromArena assembles a Graph over an arena's views. For undirected
// layouts the in-views alias the out-views; for weighted graphs with zero
// edges the weight views are pinned to empty-but-non-nil slices so
// Weighted() survives the round trip.
func graphFromArena(a *Arena, layout Layout) *Graph {
	lay := a.lay
	g := &Graph{n: lay.n, directed: lay.directed, layout: layout, arena: a}
	g.outIndex = a.int64s(secOutIndex)
	g.outNeigh = a.int32s(secOutNeigh)
	if lay.weighted {
		g.outWeight = nonNil32(a.int32s(secOutWeight))
	}
	if lay.directed {
		g.inIndex = a.int64s(secInIndex)
		g.inNeigh = a.int32s(secInNeigh)
		if lay.weighted {
			g.inWeight = nonNil32(a.int32s(secInWeight))
		}
	} else {
		g.inIndex, g.inNeigh, g.inWeight = g.outIndex, g.outNeigh, g.outWeight
	}
	g.epoch = structuralEpoch(lay, layout)
	return g
}

func nonNil32(s []int32) []int32 {
	if s == nil {
		return make([]int32, 0)
	}
	return s
}

// structuralEpoch is the cheap identity stamped on built (non-file) graphs:
// a hash of the shape and layout, not the contents. Graphs loaded from (or
// saved to) a format-v2 file carry the file's header checksum instead, which
// does cover contents — see io_v2.go. Never zero, so "no epoch recorded"
// stays distinguishable in journals.
func structuralEpoch(lay arenaLayout, layout Layout) uint64 {
	h := mix64(uint64(lay.n) + 1)
	h = mix64(h ^ uint64(lay.mOut))
	h = mix64(h ^ uint64(lay.mIn))
	var flags uint64
	if lay.directed {
		flags |= 1
	}
	if lay.weighted {
		flags |= 2
	}
	h = mix64(h ^ flags ^ uint64(layout)<<8)
	if h == 0 {
		h = 1
	}
	return h
}

// validateArenaShape rejects shapes whose layout would overflow or exceed
// the deserialization bounds.
func validateArenaShape(n int64, mOut, mIn int64) error {
	if n < 0 || n > 1<<31-2 {
		return fmt.Errorf("graph: vertex count %d out of range", n)
	}
	if mOut < 0 || mOut > 1<<40 || mIn < 0 || mIn > 1<<40 {
		return fmt.Errorf("graph: entry count %d/%d out of range", mOut, mIn)
	}
	return nil
}
