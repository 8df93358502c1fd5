package analysis

import (
	"strings"
	"testing"
)

// TestAllocInTimedRegion covers the direct finding plus every whitelist:
// sequential setup, par.ForWorker closures, append, and immediately-consumed
// func literals. Fixture paths end in "gap" so they count as timed packages.
func TestAllocInTimedRegion(t *testing.T) {
	checkRule(t, AllocInTimedRegion, []ruleCase{
		{
			name: "make inside a par closure fires",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/par"

func Kernel(out [][]int32) {
	par.Default().ForDynamic(len(out), 64, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = make([]int32, 8)
		}
	})
}
`},
			want: []string{"allocation (make) on the parallel hot path"},
		},
		{
			name: "stored closure inside a par closure fires",
			path: "gapbench/internal/gap",
			files: map[string]string{"bad.go": `package gap

import "gapbench/internal/par"

func Kernel(xs []int64) {
	par.Default().ForBlocked(len(xs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := func() int64 { return xs[i] }
			xs[i] = f()
		}
	})
}
`},
			want: []string{"allocation (func literal) on the parallel hot path"},
		},
		{
			name: "sequential setup allocation is deliberately timed, not flagged",
			path: "gapbench/internal/gap",
			files: map[string]string{"ok.go": `package gap

import "gapbench/internal/par"

func Kernel(n int) []int64 {
	out := make([]int64, n)
	par.Default().For(n, 0, func(i int) {
		out[i] = int64(i)
	})
	return out
}
`},
			want: nil,
		},
		{
			name: "par.ForWorker closures are per-worker setup",
			path: "gapbench/internal/gap",
			files: map[string]string{"ok.go": `package gap

import "gapbench/internal/par"

func Kernel(xs []int64) {
	par.Default().ForWorker(len(xs), 0, func(w, lo, hi int) {
		buf := make([]int64, 0, 64)
		for i := lo; i < hi; i++ {
			buf = append(buf, xs[i])
		}
		_ = buf
	})
}
`},
			want: nil,
		},
		{
			name: "append and immediate func literals are exempt",
			path: "gapbench/internal/gap",
			files: map[string]string{"ok.go": `package gap

import "gapbench/internal/par"

func Kernel(xs []int64, sink [][]int64) {
	par.Default().ForBlocked(len(xs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i] = append(sink[i], xs[i])
		}
	})
	done := make(chan struct{})
	go func() {
		par.Default().For(len(xs), 0, func(i int) { xs[i]++ })
		close(done)
	}()
	<-done
}
`},
			want: nil,
		},
		{
			name: "untimed packages are out of scope",
			path: "gapbench/internal/report",
			files: map[string]string{"ok.go": `package report

import "gapbench/internal/par"

func Render(out [][]int32) {
	par.Default().For(len(out), 0, func(i int) {
		out[i] = make([]int32, 8)
	})
}
`},
			want: nil,
		},
	})
}

// TestAllocInTimedRegionCrossFunction seeds the same-package interprocedural
// case: the make sits in a lexically sequential helper that only the call
// graph places on a parallel path.
func TestAllocInTimedRegionCrossFunction(t *testing.T) {
	src := map[string]string{"bad.go": `package gap

import "gapbench/internal/par"

// scratch looks like setup code on its own.
func scratch(n int) []int32 {
	return make([]int32, n)
}

func Kernel(out [][]int32) {
	par.Default().For(len(out), 0, func(i int) {
		out[i] = scratch(8)
	})
}
`}
	got := runRule(t, AllocInTimedRegion, loadFixture(t, "gapbench/internal/gap", src))
	if len(got) != 1 {
		t.Fatalf("want 1 diagnostic at the helper's make, got %v", got)
	}
	// Reported at scratch's own allocation site (line 7), not the call.
	if !strings.Contains(got[0], "bad.go:7:") || !strings.Contains(got[0], "allocation (make)") {
		t.Errorf("diagnostic = %q, want the make at bad.go:7 flagged", got[0])
	}
}

// TestAllocInTimedRegionCrossPackage seeds the transitive case across a
// package boundary: a timed kernel calls the real internal/graph constructor
// from a parallel region, and the finding lands at the kernel's call site,
// naming the allocation it reaches.
func TestAllocInTimedRegionCrossPackage(t *testing.T) {
	src := map[string]string{"bad.go": `package gap

import (
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

func Kernel(n int64, sink []*graph.Bitmap) {
	par.Default().For(len(sink), 0, func(i int) {
		sink[i] = graph.NewBitmap(n)
	})
}
`}
	fixture := loadFixture(t, "gapbench/internal/gap", src)
	got := runRuleOn(t, AllocInTimedRegion, fixture, loadRealDir(t, "internal/graph"), parPackage(t))
	if len(got) != 1 {
		t.Fatalf("want 1 diagnostic at the cross-package call, got %v", got)
	}
	for _, want := range []string{"bad.go:10:", "call to ", "NewBitmap", "allocates (make at "} {
		if !strings.Contains(got[0], want) {
			t.Errorf("diagnostic = %q, want substring %q", got[0], want)
		}
	}
}
