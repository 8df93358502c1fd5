package measure

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one query or one
// suite cell share a Trace id; Parent is the ID of the span that caused this
// one (0 for a root). Start and End are nanoseconds since the recorder was
// made.
type Span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder records
// nothing, so untraced runs pass nil and pay one nil check per call.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a finished span and returns its ID for use as a parent.
func (r *Recorder) Add(trace, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// Begin opens a span whose end is not known yet; End closes it. The span
// counts for nothing until it is closed.
func (r *Recorder) Begin(trace, parent int64, name string) int64 {
	now := time.Now()
	return r.Add(trace, parent, name, now, now)
}

// End closes a span opened with Begin.
func (r *Recorder) End(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns the recorded spans in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of that interval its direct children cover.
// Children of different traces may overlap — two clients' queries under one
// workload span — and cover their union.
//
// It also returns how far the parts are from summing to the whole: the worst,
// over root spans, of the time by which children overrun their parents or
// overlap siblings of the same trace, as a share of the root's duration. When
// that is 0, every span of a trace is tiled by its self time and its
// children, so the self times of a trace's tree sum exactly to its root.
func SelfTimes(spans []Span) (self map[string]int64, worstGap float64) {
	byID := make(map[int64]Span, len(spans))
	children := make(map[int64][]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rootOf := func(s Span) Span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	self = make(map[string]int64)
	misfit := make(map[int64]int64) // root ID -> overrun + same-trace overlap below it
	for _, s := range spans {
		kids := children[s.ID]
		if len(kids) == 0 {
			self[s.Name] += s.End - s.Start
			continue
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, bad int64
		coveredTo := s.Start
		lastEnd := map[int64]int64{} // per trace, where its latest child so far ended
		for _, k := range kids {
			bad += max(0, s.Start-k.Start) + max(0, k.End-s.End)
			if end, seen := lastEnd[k.Trace]; seen {
				bad += max(0, min(end, k.End)-k.Start)
			}
			lastEnd[k.Trace] = max(lastEnd[k.Trace], k.End)
			from, to := max(k.Start, coveredTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				coveredTo = to
			}
		}
		self[s.Name] += s.End - s.Start - covered
		if bad > 0 {
			misfit[rootOf(s).ID] += bad
		}
	}
	for id, bad := range misfit {
		if dur := byID[id].End - byID[id].Start; dur > 0 {
			worstGap = max(worstGap, float64(bad)/float64(dur))
		}
	}
	return self, worstGap
}

// WriteJSONL writes one span per line to path, after a first line holding
// header (the run's environment record).
func WriteJSONL(path string, header any, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
