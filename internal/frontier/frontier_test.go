package frontier

import (
	"sync/atomic"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/par"
)

func TestConversionRoundTripSmall(t *testing.T) {
	s := FromList(16, []graph.NodeID{5, 1, 3})
	if s.Size() != 3 || s.layout != SparseList {
		t.Fatalf("FromList: size=%d layout=%v", s.Size(), s.layout)
	}
	b := s.ToBitmap(par.Default(), 2)
	if b.Size() != 3 || b.layout != Bitmap {
		t.Fatalf("ToBitmap: size=%d layout=%v", b.Size(), b.layout)
	}
	for _, v := range []graph.NodeID{1, 3, 5} {
		if !b.Contains(v) {
			t.Fatalf("bitmap missing %d", v)
		}
	}
	if b.Contains(0) || b.Contains(2) || b.Contains(15) {
		t.Fatal("bitmap contains a vertex that was never added")
	}
	l := b.ToList(par.Default(), 2)
	want := []graph.NodeID{1, 3, 5}
	if len(l.List()) != len(want) {
		t.Fatalf("ToList length %d, want %d", len(l.List()), len(want))
	}
	for i, v := range l.List() {
		if v != want[i] {
			t.Fatalf("ToList[%d] = %d, want %d (conversion must be sorted)", i, v, want[i])
		}
	}
	// Converting an already-converted layout is the identity.
	if b.ToBitmap(par.Default(), 2) != b || l.ToList(par.Default(), 2) != l {
		t.Fatal("same-layout conversion is not the identity")
	}
}

// TestConversionParallelPaths drives both conversions through their
// machine-parallel branches (above serialWordsCutoff words / convertTileList
// entries) and asserts the two-pass gather produces the exact sorted set.
func TestConversionParallelPaths(t *testing.T) {
	const n = int64(serialWordsCutoff*64 + 777) // > serialWordsCutoff words
	m := par.NewMachine(4)
	defer m.Close()
	b := NewSet(n, Bitmap)
	var want []graph.NodeID
	for v := int64(0); v < n; v += 7 {
		b.bits.SetAtomic(v)
		b.count++
		want = append(want, graph.NodeID(v))
	}
	if int64(len(want)) <= convertTileList {
		t.Fatalf("test setup: %d members does not reach the parallel ToBitmap path", len(want))
	}
	l := b.ToList(m, 4)
	if int64(len(l.List())) != b.Size() || l.Size() != b.Size() {
		t.Fatalf("ToList produced %d members, want %d", len(l.List()), b.Size())
	}
	for i, v := range l.List() {
		if v != want[i] {
			t.Fatalf("parallel ToList[%d] = %d, want %d", i, v, want[i])
		}
	}
	b2 := l.ToBitmap(m, 4)
	if b2.Size() != b.Size() {
		t.Fatalf("round-trip bitmap has %d members, want %d", b2.Size(), b.Size())
	}
	for _, v := range want {
		if !b2.Contains(v) {
			t.Fatalf("round-trip bitmap missing %d", v)
		}
	}
}

// TestPushPullAgree expands one BFS level both ways and asserts the two
// sweeps discover exactly the same next frontier.
func TestPushPullAgree(t *testing.T) {
	g, err := generate.ByName("Kron", 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumNodes())
	m := par.NewMachine(4)
	defer m.Close()
	var src graph.NodeID
	for g.OutDegree(src) == 0 {
		src++
	}
	cur := FromList(n, []graph.NodeID{src})

	parentPush := make([]int32, n)
	for i := range parentPush {
		parentPush[i] = -1
	}
	parentPush[src] = int32(src)
	nextPush := Push(m, g, cur, Bitmap, 4, func(u, v graph.NodeID) bool {
		return atomic.LoadInt32(&parentPush[v]) < 0 &&
			atomic.CompareAndSwapInt32(&parentPush[v], -1, int32(u))
	})

	parentPull := make([]int32, n)
	for i := range parentPull {
		parentPull[i] = -1
	}
	parentPull[src] = int32(src)
	nextPull := Pull(m, g, cur, 4,
		func(v graph.NodeID) bool { return parentPull[v] < 0 },
		func(u, v graph.NodeID) bool { parentPull[v] = int32(u); return true })

	if nextPush.Size() != nextPull.Size() {
		t.Fatalf("push found %d vertices, pull found %d", nextPush.Size(), nextPull.Size())
	}
	for v := graph.NodeID(0); int64(v) < n; v++ {
		if nextPush.Contains(v) != nextPull.Contains(v) {
			t.Fatalf("push and pull disagree on vertex %d", v)
		}
	}
}

func TestDispatcherBeamerAccounting(t *testing.T) {
	d := NewDispatcher(100, 1000, 10)
	if d.UsePull() {
		t.Fatal("scout 10 <= 1000/15: must start pushing")
	}
	d.BeginPush()
	if d.edgesToCheck != 990 {
		t.Fatalf("edgesToCheck = %d after BeginPush, want 990", d.edgesToCheck)
	}
	d.EndPush(200)
	if d.scout != 200 {
		t.Fatalf("scout = %d after EndPush, want 200", d.scout)
	}
	if !d.UsePull() {
		t.Fatal("scout 200 > 990/15: must switch to pull")
	}
	// KeepPulling: growing frontier, or still above n/beta.
	if !d.KeepPulling(50, 40) {
		t.Fatal("growing awake count must keep pulling")
	}
	if !d.KeepPulling(10, 40) {
		t.Fatal("awake 10 > 100/18: must keep pulling")
	}
	if d.KeepPulling(4, 40) {
		t.Fatal("shrinking awake below n/beta must stop pulling")
	}
	if d.KeepPulling(0, 40) {
		t.Fatal("empty frontier must stop pulling")
	}
	d.EndPull()
	if d.scout != 1 {
		t.Fatalf("scout = %d after EndPull, want the pessimistic 1", d.scout)
	}
	if d.UsePull() {
		t.Fatal("scout 1 must resume pushing")
	}
	d.DisableAccounting()
	if d.scout != 0 || d.edgesToCheck != 1000 {
		t.Fatalf("DisableAccounting left scout=%d edgesToCheck=%d", d.scout, d.edgesToCheck)
	}
	if d.UsePull() {
		t.Fatal("push-only dispatcher must never pull")
	}
	d2 := NewDispatcher(100, 1000, 999)
	d2.Alpha = 0
	if d2.UsePull() {
		t.Fatal("Alpha=0 disables the pull side entirely")
	}
}

// TestConversionCancelledTerminates is the cancel-liveness contract: a
// machine whose token already fired must still return from the parallel
// conversion paths promptly (with a partial result the harness discards).
func TestConversionCancelledTerminates(t *testing.T) {
	if frontierCheckEnabled {
		t.Skip("partial cancelled conversions legitimately violate the sanitizer's count invariant")
	}
	const n = int64(serialWordsCutoff*64 + 777)
	m := par.NewMachine(4)
	defer m.Close()
	tok := par.NewCancelToken()
	tok.Cancel()
	m.SetCancel(tok)
	defer m.SetCancel(nil)

	b := NewSet(n, Bitmap)
	list := make([]graph.NodeID, 0, n/3)
	for v := int64(0); v < n; v += 3 {
		b.bits.SetAtomic(v)
		b.count++
		list = append(list, graph.NodeID(v))
	}
	if out := b.ToList(m, 4); out == nil {
		t.Fatal("cancelled ToList returned nil")
	}
	if out := FromList(n, list).ToBitmap(m, 4); out == nil {
		t.Fatal("cancelled ToBitmap returned nil")
	}
}
