package measure

import (
	"math"
	"testing"
	"time"
)

func TestMinAcrossPasses(t *testing.T) {
	// Slot i always runs source i, so slots differ and passes repeat them.
	// Pass 1 ran inside a host slowdown: every slot of it is slow.
	passes := [][]float64{
		{1.0, 2.0, 3.0},
		{1.9, 3.8, 5.7},
		{1.1, 1.9, 3.2},
	}
	if got, want := MinAcrossPasses(passes), (1.0+1.9+3.0)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("MinAcrossPasses = %v, want %v: the slow pass must drop out slot by slot", got, want)
	}
	// A pass that lost its last slot still counts for the others.
	if got, want := MinAcrossPasses([][]float64{{4, 5}, {3}}), (3.0+5.0)/2; got != want {
		t.Errorf("ragged passes: got %v, want %v", got, want)
	}
	if got := MinAcrossPasses(nil); !math.IsNaN(got) {
		t.Errorf("no passes: got %v, want NaN", got)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: the p-th percentile of 1..1000 is ceil(p*10).
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}} {
		if got, ok := Percentile(xs, c.p); !ok || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v, true", c.p, got, ok, c.want)
		}
	}
	// p99.9 of 1000 samples has one sample beyond it: refused.
	if got, ok := Percentile(xs, 99.9); ok || got != 0 {
		t.Errorf("p99.9 of 1000 samples = %v, %v; want refusal", got, ok)
	}
	// Exactly ten beyond is the least that is accepted.
	if _, ok := Percentile(xs[:100], 90); !ok {
		t.Error("p90 of 100 samples has ten beyond it and must be accepted")
	}
	if _, ok := Percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has nine beyond it and must be refused")
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("a percentile of nothing must be refused")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q2, q3 := Quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("Quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got, want := IQRSpread([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}), (31-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("IQRSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11], n=4) gives [9.75, 10.5, 11.25].
	if q1, _, q3 := Quartiles([]float64{10, 11}); q1 != 9.75 || q3 != 11.25 {
		t.Errorf("two samples: %v %v, want 9.75 11.25", q1, q3)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("Geomean(1, 100) = %v, want 10", got)
	}
}

func TestSelfTimes(t *testing.T) {
	r := NewRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	// query 0..100: wait 0..10, roundtrip 10..90 holding service 30..90
	// holding kernel 50..90, decode 90..100.
	q := r.Add(1, 0, "query", at(0), at(100))
	r.Add(1, q, "wait", at(0), at(10))
	rt := r.Add(1, q, "roundtrip", at(10), at(90))
	svc := r.Add(1, rt, "service", at(30), at(90))
	r.Add(1, svc, "kernel", at(50), at(90))
	r.Add(1, q, "decode", at(90), at(100))
	self, gap := SelfTimes(r.Spans())
	want := map[string]int64{"query": 0, "wait": 10, "roundtrip": 20, "service": 20, "kernel": 40, "decode": 10}
	for name, ms := range want {
		if got := self[name] / 1e6; got != ms {
			t.Errorf("self time of %s = %d ms, want %d", name, got, ms)
		}
	}
	if gap != 0 {
		t.Errorf("parts of a well-formed tree miss the whole by %v, want 0", gap)
	}

	// Two clients' queries, each a trace of its own, overlap under one
	// workload span: they cover their union, and nothing is amiss.
	two := NewRecorder()
	w := two.Add(0, 0, "workload", two.epoch, two.epoch.Add(100*time.Millisecond))
	two.Add(1, w, "query", two.epoch.Add(10*time.Millisecond), two.epoch.Add(60*time.Millisecond))
	two.Add(2, w, "query", two.epoch.Add(40*time.Millisecond), two.epoch.Add(80*time.Millisecond))
	self, gap = SelfTimes(two.Spans())
	if self["workload"] != 30e6 || self["query"] != 90e6 || gap != 0 {
		t.Errorf("concurrent traces: workload self %d ns, query self %d ns, gap %v; want 30 ms, 90 ms, 0", self["workload"], self["query"], gap)
	}
	// Siblings of one trace may not overlap: 20 ms of 100 are counted twice.
	same := NewRecorder()
	q = same.Add(1, 0, "query", same.epoch, same.epoch.Add(100*time.Millisecond))
	same.Add(1, q, "encode", same.epoch, same.epoch.Add(50*time.Millisecond))
	same.Add(1, q, "roundtrip", same.epoch.Add(30*time.Millisecond), same.epoch.Add(100*time.Millisecond))
	if _, gap := SelfTimes(same.Spans()); math.Abs(gap-0.20) > 1e-9 {
		t.Errorf("overlapping siblings: gap = %v, want 0.20", gap)
	}

	// A child that overruns its parent must show as a gap, not vanish.
	bad := NewRecorder()
	p := bad.Add(2, 0, "parent", bad.epoch, bad.epoch.Add(100*time.Millisecond))
	bad.Add(2, p, "child", bad.epoch, bad.epoch.Add(130*time.Millisecond))
	if _, gap := SelfTimes(bad.Spans()); math.Abs(gap-0.30) > 1e-9 {
		t.Errorf("overrunning child: gap = %v, want 0.30", gap)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin(1, 0, "x")
	r.End(id)
	if id != 0 || r.Add(1, 0, "y", time.Now(), time.Now()) != 0 || r.Spans() != nil {
		t.Error("a nil recorder must be a no-op")
	}
}
