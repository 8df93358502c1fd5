package main

// drive.go is the gapd load driver: concurrent clients replaying a mixed
// kernel stream against a running daemon, with Zipf-skewed sources (popular
// vertices dominate real query traffic), Poisson or closed-loop arrivals,
// JSONL per-query latency records, and the internal/report tail summaries.
//
//	gapd -listen unix:/tmp/gapd.sock -graphs Road -scale 12 &
//	workload -addr unix:/tmp/gapd.sock -clients 16 -duration 10s
//	workload -addr unix:/tmp/gapd.sock -clients 4 -rate 200 -mix BFS:4,PR:1
//	workload -addr unix:/tmp/gapd.sock -records run.jsonl -bench Serve/all/c16

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gapbench/internal/report"
	"gapbench/internal/serve"
)

// driveConfig parameterizes one load run.
type driveConfig struct {
	Addr     string
	Clients  int
	Duration time.Duration
	// Rate is the total offered Poisson arrival rate in queries/second,
	// split evenly across clients; 0 means closed-loop (each client sends
	// back-to-back).
	Rate float64
	// Mix is the kernel mix as "BFS:4,SSSP:1,PR:2,CC:1" weights.
	Mix string
	// Zipf is the source-vertex skew exponent (>1); 0 means uniform.
	Zipf float64
	// BudgetMS is the per-query deadline budget sent to the daemon.
	BudgetMS int64
	// Records, when set, receives one JSONL QueryRecord per query.
	Records string
	// Bench, when set, appends a go-bench formatted summary line named
	// Benchmark<Bench> for scripts/bench.sh's folding.
	Bench string
	Seed  int64
}

// mixEntry is one kernel with its cumulative weight boundary.
type mixEntry struct {
	kernel string
	bound  float64
}

// parseMix turns "BFS:4,PR:1" into cumulative sampling bounds.
func parseMix(s string) ([]mixEntry, error) {
	if s == "" {
		s = "BFS:4,SSSP:2,PR:2,CC:2"
	}
	var entries []mixEntry
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		name, wstr, found := strings.Cut(strings.TrimSpace(part), ":")
		w := 1.0
		if found {
			var err error
			if w, err = strconv.ParseFloat(wstr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
		}
		k := strings.ToUpper(strings.TrimSpace(name))
		switch k {
		case "BFS", "SSSP", "PR", "CC":
		default:
			return nil, fmt.Errorf("mix kernel %q not served (want BFS, SSSP, PR, CC)", name)
		}
		total += w
		entries = append(entries, mixEntry{kernel: k, bound: total})
	}
	for i := range entries {
		entries[i].bound /= total
	}
	return entries, nil
}

// pickKernel samples the mix.
func pickKernel(entries []mixEntry, rng *rand.Rand) string {
	u := rng.Float64()
	for _, e := range entries {
		if u <= e.bound {
			return e.kernel
		}
	}
	return entries[len(entries)-1].kernel
}

// sourcePicker draws source vertices for one graph: Zipf-skewed over the
// vertex ID space when skew > 1 (popular-vertex traffic), uniform otherwise.
type sourcePicker struct {
	nodes int64
	zipf  *rand.Zipf
	rng   *rand.Rand
}

func newSourcePicker(rng *rand.Rand, nodes int64, skew float64) *sourcePicker {
	p := &sourcePicker{nodes: nodes, rng: rng}
	if skew > 1 && nodes > 1 {
		p.zipf = rand.NewZipf(rng, skew, 1, uint64(nodes-1))
	}
	return p
}

func (p *sourcePicker) pick() int64 {
	if p.zipf != nil {
		return int64(p.zipf.Uint64())
	}
	return p.rng.Int63n(p.nodes)
}

// dialDaemon mirrors serve.Listen's address grammar on the client side.
func dialDaemon(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", strings.TrimPrefix(addr, "tcp:"))
}

// clientResult is one driver client's records.
type clientResult struct {
	records []report.QueryRecord
	err     error
}

// runDrive executes the load run and writes the summary to out.
func runDrive(cfg driveConfig, out io.Writer) error {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return err
	}

	// One control connection discovers the served graphs and sizes the
	// source distributions.
	resp, err := control(cfg.Addr, serve.OpGraphs)
	if err != nil {
		return err
	}
	graphs := resp.Graphs
	if len(graphs) == 0 {
		return fmt.Errorf("daemon at %s serves no graphs", cfg.Addr)
	}

	start := time.Now()
	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = driveClient(cfg, graphs, mix, c, start)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var records []report.QueryRecord
	for c, r := range results {
		if r.err != nil {
			return fmt.Errorf("client %d: %w", c, r.err)
		}
		records = append(records, r.records...)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].OffsetMicros < records[j].OffsetMicros })

	if cfg.Records != "" {
		if err := writeRecords(cfg.Records, records); err != nil {
			return err
		}
	}
	sum := report.Summarize(records, wall)
	fmt.Fprintf(out, "drive: %d clients, %v", cfg.Clients, cfg.Duration.Round(time.Millisecond))
	if cfg.Rate > 0 {
		fmt.Fprintf(out, ", poisson %.1f qps offered", cfg.Rate)
	} else {
		fmt.Fprint(out, ", closed loop")
	}
	fmt.Fprintf(out, ", mix %s\n", mixString(mix))
	fmt.Fprint(out, sum.String())
	fmt.Fprint(out, report.LatencyByKernel(records, wall))
	// What the daemon itself counted, lifetime totals: in particular whether
	// the PR/CC traffic above was answered from snapshots (hits) or paid for
	// whole-graph kernel runs (builds).
	if resp, err = control(cfg.Addr, serve.OpStats); err != nil {
		return err
	}
	if st := resp.Stats; st != nil {
		fmt.Fprintf(out, "daemon: accepted=%d ok=%d timeouts=%d panics=%d abandoned=%d snapshot_builds=%d snapshot_hits=%d snapshot_failed=%d\n",
			st.Accepted, st.OK, st.Timeouts, st.Panics, st.Abandoned, st.SnapshotBuilds, st.SnapshotHits, st.SnapshotFailed)
	}
	if cfg.Bench != "" {
		fmt.Fprintln(out, sum.BenchLine(cfg.Bench))
	}
	return nil
}

// mixString renders the normalized mix for the run header.
func mixString(mix []mixEntry) string {
	var parts []string
	prev := 0.0
	for _, e := range mix {
		parts = append(parts, fmt.Sprintf("%s %.0f%%", e.kernel, 100*(e.bound-prev)))
		prev = e.bound
	}
	return strings.Join(parts, " / ")
}

// control runs one control op (graphs, stats) on a connection of its own.
func control(addr, op string) (serve.Response, error) {
	conn, err := dialDaemon(addr)
	if err != nil {
		return serve.Response{}, err
	}
	defer func() { _ = conn.Close() }() // read-only control exchange; nothing to report
	resp, err := roundTrip(conn, bufio.NewReader(conn), serve.Request{Op: op})
	if err != nil {
		return resp, err
	}
	if resp.Code != serve.CodeOK {
		return resp, fmt.Errorf("%s op: %s %s", op, resp.Code, resp.Error)
	}
	return resp, nil
}

// roundTrip sends one request line and reads one response line.
func roundTrip(conn net.Conn, r *bufio.Reader, req serve.Request) (serve.Response, error) {
	var resp serve.Response
	b, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	if _, err := conn.Write(append(b, '\n')); err != nil {
		return resp, err
	}
	line, err := r.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	err = json.Unmarshal(line, &resp)
	return resp, err
}

// driveClient runs one client connection until the deadline: build a query
// from the mix, wait for its Poisson arrival slot (open loop) or send
// immediately (closed loop), and record what came back.
func driveClient(cfg driveConfig, graphs []serve.GraphInfo, mix []mixEntry, idx int, start time.Time) clientResult {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7919))
	conn, err := dialDaemon(cfg.Addr)
	if err != nil {
		return clientResult{err: err}
	}
	defer func() { _ = conn.Close() }() // every round trip already checked its own I/O error
	r := bufio.NewReader(conn)

	pickers := make([]*sourcePicker, len(graphs))
	for i, g := range graphs {
		pickers[i] = newSourcePicker(rng, g.Nodes, cfg.Zipf)
	}

	perClientRate := cfg.Rate / float64(cfg.Clients)
	next := time.Duration(0) // next arrival offset (open loop)
	deadline := start.Add(cfg.Duration)
	var records []report.QueryRecord
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if perClientRate > 0 {
			// Exponential inter-arrival gaps; a client running behind its
			// schedule (response slower than the gap) sends immediately,
			// which is how open-loop drivers surface overload.
			next += time.Duration(rng.ExpFloat64() / perClientRate * float64(time.Second))
			if wait := start.Add(next).Sub(now); wait > 0 {
				if start.Add(next).After(deadline) {
					break
				}
				time.Sleep(wait)
			}
		}

		gi := rng.Intn(len(graphs))
		req := serve.Request{
			Kernel:   pickKernel(mix, rng),
			Graph:    graphs[gi].Name,
			BudgetMS: cfg.BudgetMS,
		}
		switch req.Kernel {
		case "BFS", "SSSP":
			req.Source = pickers[gi].pick()
		case "CC":
			req.Vertex = pickers[gi].pick()
		case "PR":
			req.K = 10
		}
		sent := time.Now()
		resp, err := roundTrip(conn, r, req)
		if err != nil {
			return clientResult{err: fmt.Errorf("after %d queries: %w", len(records), err)}
		}
		// One clock per distribution: the latency is always the round trip
		// this client observed; the daemon's own figure rides along.
		records = append(records, report.QueryRecord{
			OffsetMicros: sent.Sub(start).Microseconds(),
			Micros:       time.Since(sent).Microseconds(),
			ServerMicros: resp.Micros,
			Code:         string(resp.Code),
			Kernel:       req.Kernel,
			Graph:        req.Graph,
			Client:       idx,
		})
	}
	return clientResult{records: records}
}

// writeRecords appends the run's records as JSONL.
func writeRecords(path string, records []report.QueryRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}
