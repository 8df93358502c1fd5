package graph_test

import (
	"sync"
	"testing"
	"testing/quick"

	"gapbench/internal/graph"
)

func TestBitmapBasics(t *testing.T) {
	b := graph.NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int64{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestBitmapClearAndEach(t *testing.T) {
	b := graph.NewBitmap(70)
	b.Set(0)
	b.Set(64)
	b.Set(69)
	b.Clear(0)
	if b.Get(0) || b.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	var got []int64
	b.Each(func(i int64) { got = append(got, i) })
	if len(got) != 2 || got[0] != 64 || got[1] != 69 {
		t.Fatalf("Each visited %v, want [64 69] in order", got)
	}
}

func TestBitmapSetAtomicClaims(t *testing.T) {
	b := graph.NewBitmap(1)
	if !b.SetAtomic(0) {
		t.Fatal("first SetAtomic returned false")
	}
	if b.SetAtomic(0) {
		t.Fatal("second SetAtomic returned true")
	}
}

func TestBitmapConcurrentClaims(t *testing.T) {
	const n = 1 << 12
	const workers = 8
	b := graph.NewBitmap(n)
	wins := make([]int64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < n; i++ {
				if b.SetAtomic(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Fatalf("total claims = %d, want %d (each bit claimed exactly once)", total, n)
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func TestBitmapSwap(t *testing.T) {
	a := graph.NewBitmap(64)
	b := graph.NewBitmap(64)
	a.Set(3)
	b.Set(7)
	a.Swap(b)
	if !a.Get(7) || !b.Get(3) || a.Get(3) || b.Get(7) {
		t.Fatal("Swap did not exchange contents")
	}
}

// Property: Count equals the number of distinct indices set.
func TestBitmapCountProperty(t *testing.T) {
	f := func(indices []uint16) bool {
		b := graph.NewBitmap(1 << 16)
		distinct := map[uint16]bool{}
		for _, i := range indices {
			b.Set(int64(i))
			distinct[i] = true
		}
		return b.Count() == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingQueue(t *testing.T) {
	q := graph.NewSlidingQueue(10)
	if !q.Empty() {
		t.Fatal("fresh queue not empty")
	}
	q.PushBack(1)
	q.PushBack(2)
	q.SlideWindow()
	if q.Empty() || q.Size() != 2 {
		t.Fatalf("window size = %d, want 2", q.Size())
	}
	if f := q.Frontier(); f[0] != 1 || f[1] != 2 {
		t.Fatalf("frontier = %v", f)
	}
	// Append during current window becomes next window.
	q.PushBack(3)
	q.SlideWindow()
	if q.Size() != 1 || q.Frontier()[0] != 3 {
		t.Fatalf("second window = %v", q.Frontier())
	}
	q.SlideWindow()
	if !q.Empty() {
		t.Fatal("queue should be empty after final slide")
	}
	q.Reset()
	if !q.Empty() {
		t.Fatal("queue not empty after Reset")
	}
}

func TestSlidingQueueReserveWrite(t *testing.T) {
	q := graph.NewSlidingQueue(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := q.Reserve(25)
			for i := int64(0); i < 25; i++ {
				q.Write(base+i, graph.NodeID(w))
			}
		}(w)
	}
	wg.Wait()
	q.SlideWindow()
	if q.Size() != 100 {
		t.Fatalf("size = %d, want 100", q.Size())
	}
	counts := map[graph.NodeID]int{}
	for _, v := range q.Frontier() {
		counts[v]++
	}
	for w := graph.NodeID(0); w < 4; w++ {
		if counts[w] != 25 {
			t.Fatalf("worker %d wrote %d entries, want 25", w, counts[w])
		}
	}
}
