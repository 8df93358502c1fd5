package main

import (
	"os"
	"path/filepath"
	"testing"

	"gapbench/internal/graphit"
)

// TestStoreFile: -tunefile's file layer. A missing file is an empty store
// (the first tuning run), a saved one loads back, garbage is an error.
func TestStoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "schedules.json")
	st, err := loadStore(path)
	if err != nil {
		t.Fatalf("missing store file must load empty, got %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("missing store has %d entries", st.Len())
	}
	sched := graphit.Schedule{Direction: graphit.PushOnly, BucketFusion: true}
	st.Put("sssp", 7, "Optimized", sched, 0.5)
	if err := saveStore(path, st); err != nil {
		t.Fatal(err)
	}
	back, err := loadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := back.Lookup("sssp", 7, "Optimized"); !ok || got != sched {
		t.Fatalf("Lookup after reload = %+v, %v; want %+v, true", got, ok, sched)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadStore(path); err == nil {
		t.Fatal("garbage store file must fail to load")
	}
}
