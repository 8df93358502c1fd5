package drive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gapbench/benchmark/measure"
)

// Sample is one query as the client saw it. Latency runs from Intended — the
// instant the query was due, which in a closed loop is the instant the client
// turned to it — to Parsed.
type Sample struct {
	Query
	Intended  time.Time // when the query was due
	SendStart time.Time // when the client began encoding it
	Encoded   time.Time // request bytes ready, write begins
	LineRead  time.Time // response line read off the socket
	Parsed    time.Time // response decoded
	OK        bool
	Code      string // response code, or the client-side error
	Micros    int64  // server: admission to response
	KernelUS  int64  // server: kernel alone
	Answer    Answer
}

// Latency is what the client waited, from the instant the query was due.
func (s *Sample) Latency() time.Duration { return s.Parsed.Sub(s.Intended) }

// traceIDs numbers query traces; the offset keeps them apart from the suite's
// cell traces in a shared trace file.
var traceIDs atomic.Int64

const queryTraceBase = 1 << 32

// client is one connection to the daemon: a serial request stream.
type client struct {
	conn   net.Conn
	r      *bufio.Reader
	graphs []GraphInfo
	rec    *measure.Recorder // nil unless this phase is traced
	root   int64
}

// readTimeout bounds how long a client waits for one response line. The
// daemon's own default query budget is 1 s; a response this late means the
// daemon is gone or wedged, and the rest of the phase counts as failed.
const readTimeout = 15 * time.Second

func dial(addr string, graphs []GraphInfo) (*client, error) {
	conn, err := net.Dial("unix", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), graphs: graphs}, nil
}

func (c *client) close() { _ = c.conn.Close() } // nothing buffered on our side

func (c *client) encode(q Query) ([]byte, error) {
	req := request{Kernel: q.Kernel, Graph: c.graphs[q.Graph].Name}
	switch q.Kernel {
	case "BFS", "SSSP":
		req.Source = q.Vertex
	case "CC":
		req.Vertex = q.Vertex
	case "PR":
		req.K = topK
	}
	b, err := json.Marshal(req)
	return append(b, '\n'), err
}

// lost marks s as a query the client could not complete.
func (s *Sample) lost(why string) {
	s.Code = "client: " + why
	s.LineRead, s.Parsed = time.Now(), time.Now()
}

// receive reads one response line into s and stamps LineRead and Parsed. It
// reports false when the connection can carry no further answers.
func (c *client) receive(s *Sample) bool {
	if err := c.conn.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
		s.lost(err.Error())
		return false
	}
	line, err := c.r.ReadSlice('\n')
	s.LineRead = time.Now()
	var resp response
	if err == nil {
		err = json.Unmarshal(line, &resp)
	}
	s.Parsed = time.Now()
	if err != nil {
		s.lost(err.Error())
		return false
	}
	s.Code, s.OK = resp.Code, resp.Code == codeOK
	s.Micros, s.KernelUS = resp.Micros, resp.KernelMicros
	if resp.Result != nil {
		s.Answer = *resp.Result
	}
	if c.rec != nil {
		emitSpans(c.rec, c.root, s)
	}
	return true
}

// send encodes and writes q, stamping SendStart and Encoded.
func (c *client) send(s *Sample) error {
	s.SendStart = time.Now()
	b, err := c.encode(s.Query)
	s.Encoded = time.Now()
	if err == nil {
		_, err = c.conn.Write(b)
	}
	return err
}

// closedLoop sends the stream's queries back to back until the deadline,
// each one only after the previous answer was parsed: a caller that waits for
// its reply. A slow daemon therefore receives less load.
func (c *client) closedLoop(st *Stream, until time.Time, sizeHint int) []Sample {
	out := make([]Sample, 0, sizeHint)
	for time.Now().Before(until) {
		s := Sample{Query: st.Next()}
		s.Intended = time.Now()
		err := c.send(&s)
		if err != nil {
			s.lost(err.Error())
		}
		alive := err == nil && c.receive(&s)
		out = append(out, s)
		if !alive {
			break
		}
	}
	return out
}

// due is one scheduled query and the connection it goes out on.
type due struct {
	conn int
	q    Query
}

// waitUntil sleeps until t. It sleeps in the kernel (nanosleep), because a Go
// timer is served by the netpoller at millisecond granularity: time.Sleep ran
// 0.3 to 1 ms late at the median on the two-core VM this was written on,
// nanosleep 0.1 ms, and spinning instead took the core the daemon needs.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an error is an early wake-up; the loop sleeps the rest
	}
}

// openLoop sends each query at its due instant whether or not earlier ones
// were answered — independent users — from one generator goroutine, and
// reads each connection's answers on a goroutine of its own. Latency runs
// from the due instant, so when the daemon (or the generator) falls behind,
// the wait shows in every query queued behind the stall instead of being left
// out. Every scheduled query yields a sample; one never sent or never
// answered is a failed one. scheds[i] is connection i's schedule, ascending
// in At.
func openLoop(clients []*client, scheds [][]Query, start time.Time) [][]Sample {
	var timeline []due
	sent := make([]chan Sample, len(clients))
	for i, sched := range scheds {
		for _, q := range sched {
			timeline = append(timeline, due{i, q})
		}
		// Sized to the schedule, so the generator never waits for a receiver.
		sent[i] = make(chan Sample, len(sched))
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].q.At < timeline[j].q.At })

	go func() {
		broken := make([]string, len(clients))
		for _, d := range timeline {
			s := Sample{Query: d.q, Intended: start.Add(d.q.At)}
			if broken[d.conn] == "" {
				waitUntil(s.Intended)
				if err := clients[d.conn].send(&s); err != nil {
					broken[d.conn] = "client: " + err.Error()
				}
			}
			if why := broken[d.conn]; why != "" {
				s.SendStart, s.Encoded, s.Code = s.Intended, s.Intended, why
			}
			sent[d.conn] <- s
		}
		for _, ch := range sent {
			close(ch)
		}
	}()

	out := make([][]Sample, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = make([]Sample, 0, len(scheds[i]))
			dead := ""
			for s := range sent[i] {
				switch {
				case s.Code != "": // never sent
					s.LineRead, s.Parsed = time.Now(), time.Now()
				case dead != "": // no later answer can be matched to its query
					s.lost(dead)
				case !c.receive(&s):
					dead = "after " + s.Code
				}
				out[i] = append(out[i], s)
			}
		}()
	}
	wg.Wait()
	return out
}

// emitSpans records one query's tree: the query from due instant to parsed,
// tiled by the driver's wait, encode, round trip and decode; inside the round
// trip the daemon's reported service time, and inside that its kernel time.
// The daemon reports lengths, not instants, so both are laid against the end
// of their parent (the response is written as soon as service ends). What is
// left of the round trip is the wire: socket, scanner, both codecs' daemon
// side, flush.
func emitSpans(rec *measure.Recorder, root int64, s *Sample) {
	trace := queryTraceBase + traceIDs.Add(1)
	q := rec.Add(trace, root, "query", s.Intended, s.Parsed)
	rec.Add(trace, q, "driver.wait", s.Intended, s.SendStart)
	rec.Add(trace, q, "driver.encode", s.SendStart, s.Encoded)
	rt := rec.Add(trace, q, "roundtrip", s.Encoded, s.LineRead)
	rec.Add(trace, q, "driver.decode", s.LineRead, s.Parsed)
	if !s.OK {
		return
	}
	svcStart := s.LineRead.Add(-time.Duration(s.Micros) * time.Microsecond)
	if svcStart.Before(s.Encoded) {
		svcStart = s.Encoded
	}
	svc := rec.Add(trace, rt, "serve.service", svcStart, s.LineRead)
	kStart := s.LineRead.Add(-time.Duration(s.KernelUS) * time.Microsecond)
	if kStart.Before(svcStart) {
		kStart = svcStart
	}
	rec.Add(trace, svc, "serve.kernel", kStart, s.LineRead)
}

// control sends one control op on a fresh connection and returns the answer.
func control(addr, op string) (*response, error) {
	conn, err := net.DialTimeout("unix", addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return nil, err
	}
	b, _ := json.Marshal(request{Op: op}) // a struct of strings and ints cannot fail to marshal
	if _, err := conn.Write(append(b, '\n')); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, err
	}
	if resp.Code != codeOK {
		return nil, fmt.Errorf("%s: %s %s", op, resp.Code, resp.Error)
	}
	return &resp, nil
}
