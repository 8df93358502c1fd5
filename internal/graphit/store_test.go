package graphit

import (
	"reflect"
	"testing"

	"gapbench/internal/frontier"
	"gapbench/internal/generate"
	"gapbench/internal/kernel"
)

// TestSpaceDeterministic: the schedule space is a pure function of (kernel,
// n) — the property that makes stored schedules meaningful across runs.
func TestSpaceDeterministic(t *testing.T) {
	for _, k := range []string{"bfs", "sssp", "pr", "cc", "bc"} {
		a := scheduleSpace(k, 1<<16)
		b := scheduleSpace(k, 1<<16)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule space", k)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: schedule space is not deterministic", k)
		}
	}
}

func TestSegmentsForScalesWithN(t *testing.T) {
	if s := segmentsFor(100); s < 1 {
		t.Fatalf("segmentsFor(100) = %d, want >= 1", s)
	}
	small, large := segmentsFor(1<<16), segmentsFor(1<<22)
	if large <= small {
		t.Fatalf("segments must grow with n: %d (2^16) vs %d (2^22)", small, large)
	}
}

func TestExploreReturnsTriedSchedule(t *testing.T) {
	cands := scheduleSpace("bfs", 1<<12)
	var ran []Schedule
	best, trace := explore(cands, 2, func(s Schedule) { ran = append(ran, s) })
	if len(trace) != len(cands) {
		t.Fatalf("trace covers %d candidates, want %d", len(trace), len(cands))
	}
	if len(ran) != 2*len(cands) {
		t.Fatalf("run invoked %d times, want trials*candidates = %d", len(ran), 2*len(cands))
	}
	found := false
	for _, c := range cands {
		if c == best {
			found = true
		}
	}
	if !found {
		t.Fatal("Explore returned a schedule outside the candidate space")
	}
	if BestSeconds(trace, best) < 0 {
		t.Fatal("BestSeconds missed a schedule present in the trace")
	}
	if BestSeconds(trace, Schedule{Direction: PullOnly, NumSegments: 999}) != -1 {
		t.Fatal("BestSeconds must report -1 for absent schedules")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st := NewStore()
	sched := Schedule{Direction: PushOnly, Frontier: frontier.SparseList, BucketFusion: true, NumSegments: 4}
	st.Put("bfs", 42, "Optimized", sched, 0.125)
	st.Put("pr", 42, "Optimized", Schedule{CacheTiling: true, NumSegments: 8}, 2.5)
	first, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}

	ld, err := ParseStore(first)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Len() != 2 {
		t.Fatalf("parsed %d entries, want 2", ld.Len())
	}
	got, ok := ld.Lookup("bfs", 42, "Optimized")
	if !ok || got != sched {
		t.Fatalf("Lookup = %+v, %v; want %+v, true", got, ok, sched)
	}

	// Encode is deterministic: byte-identical on re-encode.
	second, err := ld.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("Encode is not deterministic")
	}
}

// TestStaleEpochInvalidates: the epoch is part of the key, so a store tuned
// against different graph bytes misses cleanly instead of serving a schedule
// tuned for another graph.
func TestStaleEpochInvalidates(t *testing.T) {
	st := NewStore()
	st.Put("bfs", 42, "Optimized", Schedule{Direction: PushOnly}, 1)
	if _, ok := st.Lookup("bfs", 43, "Optimized"); ok {
		t.Fatal("stale epoch must miss")
	}
	if _, ok := st.Lookup("bfs", 42, "Baseline"); ok {
		t.Fatal("different mode must miss")
	}
	if _, ok := st.Lookup("cc", 42, "Optimized"); ok {
		t.Fatal("different kernel must miss")
	}
	if _, ok := st.Lookup("bfs", 42, "Optimized"); !ok {
		t.Fatal("exact key must hit")
	}
	// Lookup sits on the Optimized timed path.
	if n := testing.AllocsPerRun(100, func() { st.Lookup("bfs", 42, "Optimized") }); n != 0 {
		t.Fatalf("Lookup allocates %v times per call, want 0", n)
	}
}

// TestFrameworkConsultsStoreInOptimizedOnly: a stored schedule overrides the
// specialization tables for Optimized cells of the graph it was tuned on, and
// Baseline cells never see it.
func TestFrameworkConsultsStoreInOptimizedOnly(t *testing.T) {
	g, err := generate.Road(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tuned := Schedule{Direction: PullOnly, Frontier: frontier.Bitmap}
	st := NewStore()
	st.Put("bfs", g.Epoch(), kernel.Optimized.String(), tuned, 1)
	f := &Framework{Schedules: st}
	opt := kernel.Options{Mode: kernel.Optimized, GraphName: "Road"}
	if s := f.scheduleFor("bfs", g, opt); s != tuned {
		t.Fatalf("Optimized BFS schedule = %+v, want the stored %+v", s, tuned)
	}
	if s := f.scheduleFor("cc", g, opt); !s.ShortCircuit {
		t.Fatal("a kernel the store does not cover must fall back to the specialization table")
	}
	if s := f.scheduleFor("bfs", g, kernel.Options{Mode: kernel.Baseline}); s == tuned {
		t.Fatal("Baseline consulted the tuned-schedule store")
	}
}

func TestParseStoreRejectsGarbage(t *testing.T) {
	if _, err := ParseStore([]byte("{not json")); err == nil {
		t.Fatal("garbage store contents must fail to parse")
	}
	if _, err := ParseStore([]byte(`{"version": 2, "entries": []}`)); err == nil {
		t.Fatal("a store of another version must be refused, not misread")
	}
}
