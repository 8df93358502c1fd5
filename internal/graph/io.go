package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary serialization of CSR graphs, the analogue of the GAP reference's
// ".sg"/".wsg" serialized-graph files: generating a benchmark graph once and
// reloading it is far cheaper than regenerating it per run.
//
// There is one file format, the version-2 arena image of io_v2.go
// (WriteSG/SaveSG). This file is the entry point that reads it: the
// magic/version dispatch in front of the mmap path (Load) and the stream copy
// path (ReadFrom). The version-1 stream format that preceded it is no longer
// written or decoded; its header is recognised only to say so.

const (
	fileMagic = "GAPB"
	// streamVersion is the retired length-prefixed stream format.
	streamVersion = 1

	flagDirected = 1 << 0
	flagWeighted = 1 << 1
)

// readPrefix reads and validates the eight bytes every graph file starts
// with: the magic and a version this build reads.
func readPrefix(r io.Reader) ([8]byte, error) {
	var prefix [8]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return prefix, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(prefix[:4]) != fileMagic {
		return prefix, fmt.Errorf("graph: bad magic %q", prefix[:4])
	}
	switch version := binary.LittleEndian.Uint32(prefix[4:]); version {
	case sgVersion:
		return prefix, nil
	case streamVersion:
		return prefix, fmt.Errorf("graph: file is format version 1, which is no longer read — regenerate it with graphgen")
	default:
		return prefix, fmt.Errorf("graph: unsupported file version %d", version)
	}
}

// ReadFrom deserializes a graph written by WriteSG, copying into heap storage
// and fully validating; use Load on a file path to get the zero-copy mmap
// fast path.
func ReadFrom(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := readPrefix(br)
	if err != nil {
		return nil, err
	}
	return readSGFrom(br, prefix)
}

// Load reads a graph from a file written by SaveSG. The file is memory-mapped
// read-only — O(header) work, zero copies — and must be released with Close.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := readPrefix(f); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return loadSG(f, st.Size())
}
