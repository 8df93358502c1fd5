package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// io_v2.go: the format-v2 serialized graph — the arena, on disk.
//
// The retired version 1 was a stream: length-prefixed arrays, decoded element
// by element into fresh heap slices. Version 2 is a *map*: a fixed 256-byte
// header followed by the arena block verbatim, sections at the same
// 64-byte-aligned offsets layoutFor assigns in memory. Saving a built graph
// is therefore the header plus one contiguous write, and loading is a
// read-only mmap plus pointer arithmetic — O(header) work regardless of
// graph size, with no allocation proportional to the edge count.
//
// Header layout (little-endian, 256 bytes):
//
//	[0:4)    magic "GAPB"
//	[4:8)    version u32 = 2
//	[8:12)   flags u32 (bit0 directed, bit1 weighted, bit2 little-endian)
//	[12:16)  layout u32 (Layout)
//	[16:24)  n u64
//	[24:32)  mOut u64
//	[32:40)  mIn u64 (0 when undirected)
//	[40:44)  provenance: generator scale u32
//	[48:56)  provenance: generator seed u64
//	[56:72)  provenance: graph name, NUL-padded [16]byte
//	[72:216) six section records {fileOff u64, bytes u64, checksum u64}
//	[216:248) reserved (zero)
//	[248:256) headerSum u64 = hashBytes(header[0:248])
//
// The section records are redundant with (n, mOut, mIn, flags) — layoutFor
// derives them — and the loader exploits that: it recomputes the layout and
// requires the stored records to match exactly, so a file whose geometry
// disagrees with its own shape fields is rejected before anything is mapped.
// Per-section checksums use the graphguard hash (guard.go), which lets
// mmap-backed graphs Seal from the header instead of re-hashing gigabytes,
// and gives VerifyChecksums a content check that is independent of load.
//
// The body is mapped, not decoded, so format v2 is little-endian only; the
// flag bit exists so a hypothetical big-endian writer is detected rather
// than misread.

const (
	sgVersion   = 2
	provNameLen = 16

	// sgHeaderSize is a multiple of arenaAlign, so file section offsets
	// (header + arena offset) stay 64-byte aligned and mmap'd sections may
	// legally be viewed as []int64.
	sgHeaderSize = 256

	flagLittleEndian = 1 << 2

	offFlags     = 8
	offLayout    = 12
	offN         = 16
	offMOut      = 24
	offMIn       = 32
	offScale     = 40
	offSeed      = 48
	offName      = 56
	offSections  = 72 // 6 × {fileOff u64, bytes u64, checksum u64}
	offHeaderSum = 248
)

// hostLE reports whether this process runs little-endian. The v2 body is
// reinterpreted in place, so both the mmap and the copy path require it.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// hashBytes chains the splitmix64 finalizer over 8-byte words (zero-padded
// tail). Order-dependent, like the array checksums in guard.go.
func hashBytes(b []byte) uint64 {
	h := uint64(len(b)) + 3
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = mix64(h ^ binary.LittleEndian.Uint64(tail[:]))
	}
	return mix64(h)
}

// sectionSums computes the per-section checksums over the arena's typed
// views. Absent sections hash as empty (the checksum functions fold the
// length in, so "empty" is still a defined constant, not zero).
func (g *Graph) sectionSums() [numSections]uint64 {
	a := g.arena
	return [numSections]uint64{
		secOutIndex:  checksum64(a.int64s(secOutIndex)),
		secOutNeigh:  checksum32(a.int32s(secOutNeigh)),
		secOutWeight: checksum32(a.int32s(secOutWeight)),
		secInIndex:   checksum64(a.int64s(secInIndex)),
		secInNeigh:   checksum32(a.int32s(secInNeigh)),
		secInWeight:  checksum32(a.int32s(secInWeight)),
	}
}

// errClosed is what WriteSG and SaveSG return for a graph whose storage
// Close released: there is no arena left to write.
var errClosed = errors.New("graph: cannot write a closed graph")

// encodeSGHeader builds the 256-byte v2 header for g's arena.
func (g *Graph) encodeSGHeader(sums [numSections]uint64) [sgHeaderSize]byte {
	a := g.arena
	le := binary.LittleEndian
	var h [sgHeaderSize]byte
	copy(h[0:4], fileMagic)
	le.PutUint32(h[4:], sgVersion)
	flags := uint32(flagLittleEndian)
	if g.directed {
		flags |= flagDirected
	}
	if g.Weighted() {
		flags |= flagWeighted
	}
	le.PutUint32(h[offFlags:], flags)
	le.PutUint32(h[offLayout:], uint32(g.layout))
	le.PutUint64(h[offN:], uint64(g.n))
	le.PutUint64(h[offMOut:], uint64(a.lay.mOut))
	le.PutUint64(h[offMIn:], uint64(a.lay.mIn))
	le.PutUint32(h[offScale:], g.provScale)
	le.PutUint64(h[offSeed:], g.provSeed)
	copy(h[offName:offName+provNameLen], g.provName)
	for sec := 0; sec < numSections; sec++ {
		base := offSections + sec*24
		le.PutUint64(h[base:], uint64(sgHeaderSize+a.lay.off[sec]))
		le.PutUint64(h[base+8:], uint64(a.lay.size[sec]))
		le.PutUint64(h[base+16:], sums[sec])
	}
	le.PutUint64(h[offHeaderSum:], hashBytes(h[:offHeaderSum]))
	return h
}

// WriteSG serializes the graph in format v2: header, then the arena block in
// one write. On success the graph's epoch becomes the header checksum — a
// content identity shared with every future load of these bytes — and the
// section checksums are retained for cheap sealing. A closed graph is an
// error.
func (g *Graph) WriteSG(w io.Writer) error {
	if !hostLE {
		return fmt.Errorf("graph: format v2 requires a little-endian host")
	}
	if g.arena == nil {
		return errClosed
	}
	sums := g.sectionSums()
	hdr := g.encodeSGHeader(sums)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(g.arena.data); err != nil {
		return err
	}
	g.hdrSums = &sums
	g.epoch = binary.LittleEndian.Uint64(hdr[offHeaderSum:])
	return nil
}

// SaveSG writes the graph to path in format v2. A closed graph is an error,
// and no file is created for it.
func (g *Graph) SaveSG(path string) error {
	if g.arena == nil {
		return errClosed
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteSG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sgHeader is the decoded, validated v2 header.
type sgHeader struct {
	directed, weighted bool
	layout             Layout
	lay                arenaLayout
	sums               [numSections]uint64
	headerSum          uint64
	name               string
	scale              uint32
	seed               uint64
}

// parseSGHeader validates a v2 header: magic, version, checksum, flags,
// shape bounds, and exact agreement between the stored section records and
// the layout recomputed from the shape. Everything a load needs to trust the
// geometry, in O(header).
func parseSGHeader(h []byte) (*sgHeader, error) {
	if len(h) < sgHeaderSize {
		return nil, fmt.Errorf("graph: v2 header truncated (%d bytes)", len(h))
	}
	le := binary.LittleEndian
	if string(h[0:4]) != fileMagic {
		return nil, fmt.Errorf("graph: bad magic %q", h[0:4])
	}
	if v := le.Uint32(h[4:]); v != sgVersion {
		return nil, fmt.Errorf("graph: unsupported file version %d", v)
	}
	headerSum := le.Uint64(h[offHeaderSum:])
	if got := hashBytes(h[:offHeaderSum]); got != headerSum {
		return nil, fmt.Errorf("graph: v2 header checksum mismatch (computed %#x, stored %#x)", got, headerSum)
	}
	flags := le.Uint32(h[offFlags:])
	if flags&^(flagDirected|flagWeighted|flagLittleEndian) != 0 {
		return nil, fmt.Errorf("graph: unknown flags %#x", flags)
	}
	if flags&flagLittleEndian == 0 {
		return nil, fmt.Errorf("graph: big-endian v2 file not supported")
	}
	layoutU := le.Uint32(h[offLayout:])
	if layoutU > uint32(LayoutDegree) {
		return nil, fmt.Errorf("graph: unknown layout %d", layoutU)
	}
	n := le.Uint64(h[offN:])
	mOut := le.Uint64(h[offMOut:])
	mIn := le.Uint64(h[offMIn:])
	if err := validateArenaShape(int64(n), int64(mOut), int64(mIn)); err != nil {
		return nil, err
	}
	hd := &sgHeader{
		directed:  flags&flagDirected != 0,
		weighted:  flags&flagWeighted != 0,
		layout:    Layout(layoutU),
		headerSum: headerSum,
		scale:     le.Uint32(h[offScale:]),
		seed:      le.Uint64(h[offSeed:]),
	}
	if !hd.directed && mIn != 0 {
		return nil, fmt.Errorf("graph: undirected v2 file claims %d in-entries", mIn)
	}
	hd.lay = layoutFor(int32(n), int64(mOut), int64(mIn), hd.directed, hd.weighted)
	for sec := 0; sec < numSections; sec++ {
		base := offSections + sec*24
		off := le.Uint64(h[base:])
		size := le.Uint64(h[base+8:])
		if int64(off) != sgHeaderSize+hd.lay.off[sec] || int64(size) != hd.lay.size[sec] {
			return nil, fmt.Errorf("graph: v2 section %d record (off=%d size=%d) disagrees with shape (off=%d size=%d)",
				sec, off, size, sgHeaderSize+hd.lay.off[sec], hd.lay.size[sec])
		}
		hd.sums[sec] = le.Uint64(h[base+16:])
	}
	name := h[offName : offName+provNameLen]
	for i, c := range name {
		if c == 0 {
			name = name[:i]
			break
		}
	}
	hd.name = string(name)
	return hd, nil
}

// checkIndexEnds performs the O(1) structural checks a v2 load relies on:
// both index arrays must start at 0 and end at the claimed entry counts.
// Interior monotonicity is covered by the section checksums (for integrity)
// rather than a scan — the point of the mmap path is to touch no pages
// proportional to the graph.
func checkIndexEnds(g *Graph, lay arenaLayout) error {
	if g.outIndex[0] != 0 || g.outIndex[lay.n] != lay.mOut {
		return fmt.Errorf("graph: v2 out-index ends %d..%d, want 0..%d", g.outIndex[0], g.outIndex[lay.n], lay.mOut)
	}
	if lay.directed {
		if g.inIndex[0] != 0 || g.inIndex[lay.n] != lay.mIn {
			return fmt.Errorf("graph: v2 in-index ends %d..%d, want 0..%d", g.inIndex[0], g.inIndex[lay.n], lay.mIn)
		}
	}
	return nil
}

// loadSG maps an open format-v2 file read-only and assembles a Graph over
// the mapping. Validation is O(header): header checksum, geometry agreement,
// file size, and the index endpoints. No section byte is copied, and none is
// even faulted in until a kernel touches it.
func loadSG(f *os.File, size int64) (*Graph, error) {
	if !hostLE {
		return nil, fmt.Errorf("graph: format v2 requires a little-endian host")
	}
	var h [sgHeaderSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return nil, fmt.Errorf("graph: reading v2 header: %w", err)
	}
	hd, err := parseSGHeader(h[:])
	if err != nil {
		return nil, err
	}
	if want := sgHeaderSize + hd.lay.total; size != want {
		return nil, fmt.Errorf("graph: file is %d bytes, header describes %d", size, want)
	}
	m, err := mmapFile(f, size)
	if err != nil {
		return nil, err
	}
	a := &Arena{lay: hd.lay, data: m[sgHeaderSize:], mapped: m}
	g := graphFromArena(a, hd.layout)
	if err := checkIndexEnds(g, hd.lay); err != nil {
		a.close()
		return nil, err
	}
	sums := hd.sums
	g.hdrSums = &sums
	g.epoch = hd.headerSum
	g.provName, g.provScale, g.provSeed = hd.name, hd.scale, hd.seed
	return g, nil
}

// readSGFrom is the stream (copy) path for format v2, used by ReadFrom when
// the source is not a mappable file. The caller has already consumed the
// 8-byte magic+version prefix; rest is the remainder of the stream. Since
// the copy already pays O(bytes), this path also verifies every section
// checksum and the full CSR structure.
func readSGFrom(rest io.Reader, prefix [8]byte) (*Graph, error) {
	if !hostLE {
		return nil, fmt.Errorf("graph: format v2 requires a little-endian host")
	}
	var h [sgHeaderSize]byte
	copy(h[:8], prefix[:])
	if _, err := io.ReadFull(rest, h[8:]); err != nil {
		return nil, fmt.Errorf("graph: reading v2 header: %w", err)
	}
	hd, err := parseSGHeader(h[:])
	if err != nil {
		return nil, err
	}
	a := newHeapArena(hd.lay)
	if _, err := io.ReadFull(rest, a.data); err != nil {
		return nil, fmt.Errorf("graph: reading v2 body: %w", err)
	}
	g := graphFromArena(a, hd.layout)
	sums := hd.sums
	g.hdrSums = &sums
	g.epoch = hd.headerSum
	g.provName, g.provScale, g.provSeed = hd.name, hd.scale, hd.seed
	if err := g.VerifyChecksums(); err != nil {
		return nil, err
	}
	if err := validateCSR(hd.lay.n, "out", g.outIndex, g.outNeigh, g.outWeight); err != nil {
		return nil, err
	}
	if hd.directed {
		if err := validateCSR(hd.lay.n, "in", g.inIndex, g.inNeigh, g.inWeight); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// VerifyChecksums recomputes the per-section checksums and compares them to
// the ones recorded in the graph's v2 header. It returns nil for graphs that
// never met a v2 file (nothing recorded to verify). Unlike the O(header)
// load validation, this reads every byte — it is the deep content check the
// differential tests and the graphguard seal tests lean on.
func (g *Graph) VerifyChecksums() error {
	if g == nil || g.hdrSums == nil || g.arena == nil {
		return nil
	}
	now := g.sectionSums()
	for sec, want := range *g.hdrSums {
		if now[sec] != want {
			return fmt.Errorf("graph: section %d checksum mismatch (computed %#x, header %#x)", sec, now[sec], want)
		}
	}
	return nil
}
