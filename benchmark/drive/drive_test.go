package drive

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

var testGraphs = []GraphInfo{{Name: "Kron", Nodes: 2048}, {Name: "Road", Nodes: 4096}}
var testMix = []MixEntry{{Kernel: "BFS", Weight: 2}, {Kernel: "SSSP", Weight: 1}}

func TestScheduleIsDeterministic(t *testing.T) {
	gen := func(seed uint64) []Query {
		return NewStream(seed, 3, 1, testMix, testGraphs).Poisson(2000, 500*time.Millisecond)
	}
	a, b := gen(42), gen(42)
	if len(a) < 800 || len(a) > 1200 {
		t.Fatalf("2000 qps for 0.5 s gave %d arrivals", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different kernel/graph/vertex/arrival sequences")
	}
	if reflect.DeepEqual(a, gen(43)) {
		t.Error("another seed gave the same sequence")
	}
	bfs := 0
	for i, q := range a {
		if i > 0 && q.At < a[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if q.Vertex < 0 || q.Vertex >= testGraphs[q.Graph].Nodes {
			t.Fatalf("vertex %d outside graph %s", q.Vertex, testGraphs[q.Graph].Name)
		}
		if q.Kernel == "BFS" {
			bfs++
		}
	}
	if share := float64(bfs) / float64(len(a)); share < 0.6 || share > 0.73 {
		t.Errorf("BFS share %.2f of a BFS:2,SSSP:1 mix", share)
	}
}

// stubDaemon answers every request line OK at once, except that it stalls
// once, for stall, before answering request number stallAt.
func stubDaemon(t *testing.T, stallAt int, stall time.Duration) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stub.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { l.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for n := 0; sc.Scan(); n++ {
					if n == stallAt {
						time.Sleep(stall)
					}
					if _, err := fmt.Fprintln(conn, `{"code":"OK","micros":10,"kernel_micros":5,"result":{"reached":1}}`); err != nil {
						return
					}
				}
			}()
		}
	}()
	return path
}

// A daemon that stalls once must slow every query queued behind the stall,
// not one: latency runs from the instant a query was due, and the generator
// keeps to its schedule whatever the daemon does.
func TestOpenLoopShowsAStallInTheQueriesBehindIt(t *testing.T) {
	const stall = 100 * time.Millisecond
	addr := stubDaemon(t, 100, stall)
	c, err := dial(addr, testGraphs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	sched := NewStream(1, 0, 0, testMix, testGraphs).Poisson(1000, 500*time.Millisecond)
	samples := openLoop([]*client{c}, [][]Query{sched}, time.Now().Add(time.Millisecond))[0]
	if len(samples) != len(sched) {
		t.Fatalf("%d samples for %d scheduled queries", len(samples), len(sched))
	}
	behind, worst := 0, time.Duration(0)
	for i := range samples {
		s := &samples[i]
		if !s.OK {
			t.Fatalf("query %d: %s", i, s.Code)
		}
		if s.Latency() > stall/2 {
			behind++
		}
		worst = max(worst, s.Latency())
	}
	// At 1000 qps about fifty queries fall due in the first half of the stall,
	// and each of them waits for more than the other half.
	if behind < 30 {
		t.Errorf("%d queries waited over %v; the stall must show in the ~50 queued behind it", behind, stall/2)
	}
	if worst < stall*9/10 {
		t.Errorf("worst latency %v, want about the %v stall", worst, stall)
	}
	rep := EvaluatePhase(samples, 1000, 500*time.Millisecond, 20*time.Millisecond)
	if rep.LateP90US > 5000 {
		t.Errorf("generator ran %.0f us late at p90: it waited for the daemon instead of keeping its schedule", rep.LateP90US)
	}
	if rep.Met {
		t.Errorf("p90 %.0f us: a phase with a tenth of its queries behind a 100 ms stall met a 20 ms limit", rep.P90US)
	}
}

// phase builds the samples of a one-second open-loop phase with n queries,
// evenly spaced, each with the latency lat(i) gives, failed where lat is
// negative.
func phase(n int, lat func(i int) time.Duration) []Sample {
	start := time.Now()
	out := make([]Sample, n)
	for i := range out {
		due := start.Add(time.Duration(i) * time.Second / time.Duration(n))
		l := lat(i)
		out[i] = Sample{Intended: due, SendStart: due, Encoded: due, OK: l >= 0}
		out[i].LineRead, out[i].Parsed = due.Add(l), due.Add(l)
	}
	return out
}

func TestLatencyLimitAndStaircase(t *testing.T) {
	const limit = 5 * time.Millisecond
	fast := func(int) time.Duration { return time.Millisecond }
	eval := func(rate float64, s []Sample) PhaseReport { return EvaluatePhase(s, rate, time.Second, limit) }

	lo := eval(1000, phase(1000, fast))
	if !lo.Met || lo.AchievedQPS != 1000 || lo.P90US != 1000 {
		t.Errorf("fast phase: %+v", lo)
	}
	// Two failures in a hundred miss the limit whatever the latencies.
	failing := eval(2000, phase(2000, func(i int) time.Duration {
		if i%50 == 0 {
			return -1
		}
		return time.Millisecond
	}))
	if failing.Met {
		t.Errorf("2%% failed queries met the limit: %+v", failing)
	}
	// A fifth of the queries over the limit puts p90 over it.
	slow := eval(3000, phase(3000, func(i int) time.Duration {
		if i%5 == 0 {
			return 8 * time.Millisecond
		}
		return time.Millisecond
	}))
	if slow.Met || slow.P90US != 8000 {
		t.Errorf("p90 over the limit: %+v", slow)
	}
	// A backlog: latency climbs through the phase, and though p90 is inside
	// the limit the last quarter is over twice the first and over half the limit.
	growing := eval(3000, phase(3000, func(i int) time.Duration { return time.Duration(i) * 4900 * time.Microsecond / 3000 }))
	if growing.Met {
		t.Errorf("a growing backlog met the limit: %+v", growing)
	}
	// Too few queries for a p90 say nothing.
	if thin := eval(50, phase(50, fast)); thin.Met {
		t.Errorf("50 queries met a p90 limit: %+v", thin)
	}

	mid := eval(2000, phase(2000, fast))
	if got := Staircase([]PhaseReport{lo, mid, slow}); got != 2000 {
		t.Errorf("Staircase = %v, want the 2000 qps phase's achieved rate", got)
	}
	if got := Staircase([]PhaseReport{failing, slow}); got != 0 {
		t.Errorf("Staircase with no phase inside the limit = %v, want 0", got)
	}
}
