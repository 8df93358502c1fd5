package graphit

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Entry is one tuned schedule: the winning point for a kernel on a concrete
// graph build under one rule set, with the time that won it.
type Entry struct {
	Kernel   string   `json:"kernel"`
	Epoch    uint64   `json:"epoch"` // graph.Graph.Epoch(): the PR 8 build identity
	Mode     string   `json:"mode"`  // kernel.Mode.String()
	Schedule Schedule `json:"schedule"`
	Seconds  float64  `json:"seconds"`
}

// storeFile is the on-disk JSON shape, versioned so a future layout change
// can refuse (rather than misread) old files.
type storeFile struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

const storeVersion = 1

// Store maps (kernel, graph epoch, mode) to the tuned schedule, and encodes
// to the schedules.json the harness persists (file I/O is the harness's:
// `gapbench -tunefile` reads and writes it). Keying on the graph's Epoch —
// the content identity of the CSR build — is what makes staleness structural:
// a regenerated or differently built graph has a different epoch, so its old
// entries are simply never found (invalidation by miss, not by heuristics).
// Lookup is RLock-only and allocation-free (the key is a comparable struct,
// not a formatted string), cheap enough for a timed path; Put/Encode are
// tuning-time operations.
type Store struct {
	mu      sync.RWMutex
	entries map[storeKey]Entry
}

// storeKey is the (kernel, graph epoch, mode) triple entries are found by.
type storeKey struct {
	kernel string
	epoch  uint64
	mode   string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[storeKey]Entry)}
}

// ParseStore decodes a store file's contents. Malformed or wrong-version
// contents are an error.
func ParseStore(data []byte) (*Store, error) {
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("graphit: parsing schedule store: %w", err)
	}
	if f.Version != storeVersion {
		return nil, fmt.Errorf("graphit: schedule store has version %d, want %d", f.Version, storeVersion)
	}
	s := NewStore()
	for _, e := range f.Entries {
		s.entries[storeKey{e.Kernel, e.Epoch, e.Mode}] = e
	}
	return s, nil
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Lookup returns the tuned schedule for (kernel, epoch, mode) if one is
// stored. Entries recorded for a different epoch of "the same" graph are
// invisible by construction — the stale-epoch invalidation the tests pin.
func (s *Store) Lookup(kernel string, epoch uint64, mode string) (Schedule, bool) {
	s.mu.RLock()
	e, ok := s.entries[storeKey{kernel, epoch, mode}]
	s.mu.RUnlock()
	return e.Schedule, ok
}

// Put records (or replaces) the tuned schedule for (kernel, epoch, mode).
func (s *Store) Put(kernel string, epoch uint64, mode string, sched Schedule, seconds float64) {
	s.mu.Lock()
	s.entries[storeKey{kernel, epoch, mode}] = Entry{
		Kernel: kernel, Epoch: epoch, Mode: mode, Schedule: sched, Seconds: seconds,
	}
	s.mu.Unlock()
}

// Encode returns the store file's contents, entries in deterministic order —
// sorted by "kernel|0xepoch|mode", the string the map was once keyed by, so
// files written before and after diff cleanly across tuning runs.
func (s *Store) Encode() ([]byte, error) {
	s.mu.RLock()
	f := storeFile{Version: storeVersion, Entries: make([]Entry, 0, len(s.entries))}
	for _, e := range s.entries {
		f.Entries = append(f.Entries, e)
	}
	s.mu.RUnlock()
	order := func(e Entry) string { return fmt.Sprintf("%s|%#x|%s", e.Kernel, e.Epoch, e.Mode) }
	sort.Slice(f.Entries, func(i, j int) bool { return order(f.Entries[i]) < order(f.Entries[j]) })
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("graphit: encoding schedule store: %w", err)
	}
	return append(data, '\n'), nil
}
