package drive

import (
	"fmt"
	"os"
	"sync"
	"time"

	"gapbench/benchmark/measure"
)

// Config describes one served workload.
type Config struct {
	// Gapd is the path of the built daemon binary.
	Gapd string
	// Scale is gapd's -scale; Graphs the suite graphs it serves.
	Scale  int
	Graphs []string
	// Mix is the kernel mix of the traffic.
	Mix []MixEntry
	// Rates are the three fixed offered rates of the open-loop phases, in
	// queries per second over all connections: lo, mid, hi.
	Rates [3]float64
	// Limit is the latency limit the open-loop phases are held to.
	Limit time.Duration
	// Budget is the measuring time: a twentieth for a discarded warm-up, the
	// rest cut into Cycles cycles. A cycle is a closed-loop phase followed by
	// one open-loop phase, OpenWeight times as long, at lo, mid and hi in
	// turn. Each number is taken per cycle and the best cycle reported,
	// because this kind of host slows down for tens of seconds at a time and
	// never speeds up: the cycles spread every phase over the run as the
	// suite's interleaved passes spread every cell.
	Budget     time.Duration
	Cycles     int
	OpenWeight int
	// SetupReps is how many times the daemon is started from nothing; the
	// start time is reported as the median and the last daemon is driven.
	SetupReps int
	// Seed drives the query and arrival schedules.
	Seed uint64
	// Rec, when not nil, makes this a traced run: every second cycle records
	// a span tree per query under Root.
	Rec  *measure.Recorder
	Root int64
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// conns is the number of client connections: one harness process on a
// two-core machine, so more would measure the harness.
const conns = 2

// phaseNames label the three offered rates in metric names.
var phaseNames = [3]string{"lo", "mid", "hi"}

// Result is what one served workload measured: metrics by name (end-to-end
// and per layer together; the caller picks), the queries counted, and why any
// of them failed.
type Result struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	Errors    []string
	// SetupS is the median time from spawning gapd to its first ping OK.
	SetupS float64
	// Phases are the open-loop phase reports in the order they ran.
	Phases []PhaseReport
	// TracedLatUS and UntracedLatUS are the mean closed-loop latencies of the
	// traced and untraced cycles of a traced run, the driver's share of the
	// tracing cost.
	TracedLatUS, UntracedLatUS float64
}

// Drive is one served workload in progress: the daemon started and warmed up
// by Start, driven one cycle at a time by Cycle so that the caller can
// interleave other work, and read, re-checked and stopped by Finish.
type Drive struct {
	cfg      Config
	res      *Result
	dir      string // temp root
	graphDir string // the running daemon's graph cache
	d        *Daemon
	graphs   []GraphInfo
	before   *Stats
	unit     time.Duration // length of a closed-loop phase
	run      phases
	reports  [3][]PhaseReport // per offered rate, one per cycle that ran it
	lat      [2][]float64     // closed-loop latencies: [0] untraced cycles, [1] traced
}

// Start starts the daemon SetupReps times from nothing, keeps the last one,
// and warms it up. The error return, here and on Cycle and Finish, is for the
// harness's own failures (no daemon, no temp dir); a failed, refused or wrong
// query is a failed operation in the Result. Close must be called when Start
// succeeded.
func Start(cfg Config) (*Drive, error) {
	p := &Drive{cfg: cfg, res: &Result{Metrics: map[string]float64{}}}
	var err error
	if p.dir, err = os.MkdirTemp("", "gapmark-serve-"); err != nil {
		return nil, err
	}
	if err := p.start(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *Drive) start() error {
	cfg := p.cfg
	var starts []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if p.d != nil {
			if _, err := p.d.Stop(); err != nil {
				return err
			}
			p.d = nil
		}
		graphDir, err := os.MkdirTemp(p.dir, "rep")
		if err != nil {
			return err
		}
		span := cfg.Rec.Begin(0, cfg.Root, "setup")
		d, took, err := StartDaemon(cfg.Gapd, graphDir, cfg.Scale, cfg.Graphs)
		cfg.Rec.End(span)
		if err != nil {
			return err
		}
		p.d, p.graphDir = d, graphDir
		starts = append(starts, took.Seconds())
	}
	p.res.SetupS = measure.Median(starts)

	resp, err := control(p.d.Addr, "graphs")
	if err != nil {
		return err
	}
	p.graphs = resp.Graphs
	p.cfg.Logf("serve: gapd up in %.3fs (median of %d), %d graphs at scale %d", p.res.SetupS, len(starts), len(p.graphs), cfg.Scale)
	if resp, err = control(p.d.Addr, "stats"); err != nil {
		return err
	}
	p.before = resp.Stats
	warm := cfg.Budget / 20
	if _, err := p.closed(0, warm, nil); err != nil { // discarded
		return err
	}
	p.unit = (cfg.Budget - warm) / time.Duration(cfg.Cycles*(1+cfg.OpenWeight))
	return nil
}

// Close stops the daemon if Finish did not, waits until it has ended, and
// removes the temp files.
func (p *Drive) Close() {
	if p.d != nil {
		p.d.Stop() // best effort on an error path; Finish reports the drain's health
		p.d = nil
	}
	os.RemoveAll(p.dir)
}

// Progress is the share of the configured cycles that have run; at 1 the
// served half is done.
func (p *Drive) Progress() float64 { return float64(len(p.run.closed)) / float64(p.cfg.Cycles) }

// Cycle runs one cycle: a closed-loop phase, then an open-loop phase at the
// next of the three offered rates.
func (p *Drive) Cycle() error {
	c := len(p.run.closed)
	rec := p.cfg.Rec
	if c%2 == 0 {
		rec = nil // a traced run leaves every other cycle untraced, to price the tracing
	}
	closed, err := p.closed(1+2*c, p.unit, rec)
	if err != nil {
		return err
	}
	p.run.closed = append(p.run.closed, closed)
	p.lat[c%2] = append(p.lat[c%2], usOf(closed, nil, latencyUS)...)

	i := c % len(p.cfg.Rates)
	rate, dur := p.cfg.Rates[i], p.unit*time.Duration(p.cfg.OpenWeight)
	samples, err := p.open(2+2*c, rate, dur, rec)
	if err != nil {
		return err
	}
	p.run.open[i] = append(p.run.open[i], samples)
	rep := EvaluatePhase(samples, rate, dur, p.cfg.Limit)
	p.reports[i] = append(p.reports[i], rep)
	p.res.Phases = append(p.res.Phases, rep)
	verdict := "met"
	if !rep.Met {
		verdict = "missed: " + rep.Why
	}
	p.cfg.Logf("serve: cycle %d open %s %.0f qps: achieved %.1f, p50 %.0f p90 %.0f p99 %.0f us, late p50 %.0f p90 %.0f max %.0f us: %s",
		c, phaseNames[i], rate, rep.AchievedQPS, rep.P50US, rep.P90US, rep.P99US, rep.LateP50US, rep.LateP90US, rep.LateMaxUS, verdict)
	return nil
}

// Finish reads the samples into metrics, re-checks sampled answers against
// the oracles, takes the layer probes in a traced run, and stops the daemon.
func (p *Drive) Finish() (*Result, error) {
	after, err := control(p.d.Addr, "stats")
	if err != nil {
		return nil, err
	}
	p.res.UntracedLatUS, p.res.TracedLatUS = measure.Mean(p.lat[0]), measure.Mean(p.lat[1])
	timed := p.run.all()
	p.closedMetrics()
	p.openMetrics(timed)
	p.statsMetrics(p.before, after.Stats)
	if p.cfg.Rec != nil {
		if err := p.layerProbes(); err != nil {
			return nil, err
		}
	}
	if err := p.verify(timed, p.graphDir); err != nil {
		return nil, err
	}
	usage, err := p.d.Stop()
	p.d = nil
	if err != nil {
		return nil, err
	}
	p.res.Metrics["proc.gapd_cpu_s"] = usage.CPU.Seconds()
	p.res.Metrics["proc.gapd_rss_peak_mb"] = usage.PeakRSSMB
	return p.res, nil
}

// closed runs one closed-loop phase on every connection.
func (p *Drive) closed(phase int, dur time.Duration, rec *measure.Recorder) ([]Sample, error) {
	clients := make([]*client, conns)
	for i := range clients {
		c, err := dial(p.d.Addr, p.graphs)
		if err != nil {
			return nil, err
		}
		defer c.close()
		c.rec, c.root = rec, p.cfg.Root
		clients[i] = c
	}
	out := make([][]Sample, conns)
	until := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewStream(p.cfg.Seed, phase, i, p.cfg.Mix, p.graphs)
			// Room for 20k answers a second, so the slice does not grow mid-phase.
			out[i] = c.closedLoop(st, until, int(dur.Seconds()*20000)+16)
		}()
	}
	wg.Wait()
	var all []Sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, nil
}

// open runs one open-loop phase: each connection sends its own Poisson
// schedule at an equal share of the offered rate.
func (p *Drive) open(phase int, rate float64, dur time.Duration, rec *measure.Recorder) ([]Sample, error) {
	clients := make([]*client, conns)
	scheds := make([][]Query, conns)
	for i := range clients {
		c, err := dial(p.d.Addr, p.graphs)
		if err != nil {
			return nil, err
		}
		defer c.close()
		c.rec, c.root = rec, p.cfg.Root
		clients[i] = c
		scheds[i] = NewStream(p.cfg.Seed, phase, i, p.cfg.Mix, p.graphs).Poisson(rate/conns, dur)
	}
	var all []Sample
	for _, s := range openLoop(clients, scheds, time.Now().Add(time.Millisecond)) {
		all = append(all, s...)
	}
	return all, nil
}

// phases holds the timed samples: per cycle the closed loop's, and per
// offered rate and cycle the open loop's.
type phases struct {
	closed [][]Sample
	open   [3][][]Sample
}

func (r *phases) all() []Sample {
	var out []Sample
	for _, c := range r.closed {
		out = append(out, c...)
	}
	for _, rate := range r.open {
		for _, c := range rate {
			out = append(out, c...)
		}
	}
	return out
}

// usOf returns sorted microsecond values of f over the OK samples that pass
// keep (nil keeps all).
func usOf(samples []Sample, keep func(*Sample) bool, f func(*Sample) float64) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.OK && (keep == nil || keep(s)) {
			out = append(out, f(s))
		}
	}
	return measure.Sorted(out)
}

func latencyUS(s *Sample) float64 { return float64(s.Latency().Nanoseconds()) / 1e3 }

// bestPercentile is the lowest, over the cycles whose sample supports it, of
// the cycle's pc-th percentile of f; when no single cycle has the samples,
// the percentile of all cycles together. ok is false when even that is too
// few.
func bestPercentile(cycles [][]Sample, keep func(*Sample) bool, f func(*Sample) float64, pc float64) (best float64, ok bool) {
	for _, c := range cycles {
		if v, supported := measure.Percentile(usOf(c, keep, f), pc); supported && (!ok || v < best) {
			best, ok = v, true
		}
	}
	if ok {
		return best, true
	}
	var pooled []Sample
	for _, c := range cycles {
		pooled = append(pooled, c...)
	}
	return measure.Percentile(usOf(pooled, keep, f), pc)
}

// pct sets metric name to the best cycle's pc-th percentile, or to 0 with a
// note when the samples do not support that percentile.
func (p *Drive) pct(name string, cycles [][]Sample, keep func(*Sample) bool, f func(*Sample) float64, pc float64) {
	v, ok := bestPercentile(cycles, keep, f, pc)
	if !ok {
		p.cfg.Logf("serve: %s: p%g needs ten samples beyond it: reported as 0", name, pc)
	}
	p.res.Metrics[name] = v
}

// closedMetrics reads the closed-loop samples: what the client waited, and
// the shares of it the daemon reports on the wire.
func (p *Drive) closedMetrics() {
	m, run := p.res.Metrics, &p.run
	for _, c := range run.closed {
		ok := 0
		for i := range c {
			if c[i].OK {
				ok++
			}
		}
		m["qps"] = max(m["qps"], float64(ok)/p.unit.Seconds())
	}
	p.pct("lat_p50_us", run.closed, nil, latencyUS, 50)
	p.pct("lat_p90_us", run.closed, nil, latencyUS, 90)
	p.pct("serve.lat_p99_us", run.closed, nil, latencyUS, 99)
	p.pct("serve.lat_p999_us", run.closed, nil, latencyUS, 99.9)
	layers := []struct {
		name string
		f    func(*Sample) float64
	}{
		{"serve.service", func(s *Sample) float64 { return float64(s.Micros) }},
		{"serve.kernel", func(s *Sample) float64 { return float64(s.KernelUS) }},
		// Gates, lease wait, result reduction, journal.
		{"serve.overhead", func(s *Sample) float64 { return float64(s.Micros - s.KernelUS) }},
		// Socket, scanner, both codecs, flush: what no daemon timer covers.
		{"serve.wire", func(s *Sample) float64 { return latencyUS(s) - float64(s.Micros) }},
	}
	for _, l := range layers {
		p.pct(l.name+"_p50_us", run.closed, nil, l.f, 50)
		p.pct(l.name+"_p90_us", run.closed, nil, l.f, 90)
	}
	for _, k := range []string{"BFS", "SSSP", "PR", "CC"} {
		inMix := false
		for _, e := range p.cfg.Mix {
			inMix = inMix || e.Kernel == k
		}
		if !inMix {
			m["serve.lat_p50_us."+k], m["serve.lat_p99_us."+k] = 0, 0
			continue
		}
		keep := func(s *Sample) bool { return s.Kernel == k }
		p.pct("serve.lat_p50_us."+k, run.closed, keep, latencyUS, 50)
		p.pct("serve.lat_p99_us."+k, run.closed, keep, latencyUS, 99)
	}
	p.cfg.Logf("serve: closed loop, %d clients, best of %d cycles: %.0f qps, p50 %.0f p90 %.0f us; service p50 %.0f, kernel p50 %.0f, wire p50 %.0f us",
		conns, len(run.closed), m["qps"], m["lat_p50_us"], m["lat_p90_us"],
		m["serve.service_p50_us"], m["serve.kernel_p50_us"], m["serve.wire_p50_us"])
}

// openMetrics reads the open-loop phases and the driver's own costs. A rate
// meets the limit when its best cycle does.
func (p *Drive) openMetrics(timed []Sample) {
	m, run := p.res.Metrics, &p.run
	var perRate []PhaseReport
	for i, rate := range p.cfg.Rates {
		p.pct("serve.open_"+phaseNames[i]+"_p90_us", run.open[i], nil, latencyUS, 90)
		sum := PhaseReport{OfferedQPS: rate}
		for _, rep := range p.reports[i] {
			sum.Met = sum.Met || rep.Met
			sum.AchievedQPS += rep.AchievedQPS / float64(len(p.reports[i]))
			m["driver.late_max_us"] = max(m["driver.late_max_us"], rep.LateMaxUS)
			if i == len(p.cfg.Rates)-1 {
				m["driver.late_p50_us"] = max(m["driver.late_p50_us"], rep.LateP50US)
			}
		}
		perRate = append(perRate, sum)
	}
	m["slo_rate_qps"] = Staircase(perRate)
	p.pct("serve.open_hi_p99_us", run.open[len(run.open)-1], nil, latencyUS, 99)
	m["driver.sent"] = float64(len(timed))
	var enc, dec float64
	for i := range timed {
		enc += float64(timed[i].Encoded.Sub(timed[i].SendStart).Nanoseconds())
		dec += float64(timed[i].Parsed.Sub(timed[i].LineRead).Nanoseconds())
	}
	m["driver.encode_ns"] = enc / float64(len(timed))
	m["driver.decode_ns"] = dec / float64(len(timed))
}

// statsMetrics reports the daemon's counter deltas over the warm-up and the
// timed phases.
func (p *Drive) statsMetrics(before, after *Stats) {
	m := p.res.Metrics
	if before == nil || after == nil {
		p.res.Errors = append(p.res.Errors, "gapd answered a stats op without stats")
		return
	}
	m["serve.accepted"] = float64(after.Accepted - before.Accepted)
	m["serve.ok"] = float64(after.OK - before.OK)
	m["serve.shed_rate"] = float64(after.ShedRate - before.ShedRate)
	m["serve.shed_queue"] = float64(after.ShedQueue - before.ShedQueue)
	m["serve.breaker_shed"] = float64(after.BreakerShed - before.BreakerShed)
	m["serve.timeouts"] = float64(after.Timeouts - before.Timeouts)
	m["serve.panics"] = float64(after.Panics - before.Panics)
	m["serve.retries"] = float64(after.Retries - before.Retries)
	m["serve.abandoned"] = float64(after.Abandoned - before.Abandoned)
}

// verify counts the operations: every timed query is one, failed when it was
// not answered OK, and a sample of the OK answers is compared with the
// oracles over the daemon's own graph files, a mismatch failing that query.
func (p *Drive) verify(timed []Sample, graphDir string) error {
	oracles, closeAll, err := openOracles(graphDir, p.cfg.Scale, p.graphs)
	if err != nil {
		return err
	}
	defer closeAll()
	ptrs := make([]*Sample, len(timed))
	failed := 0
	for i := range timed {
		ptrs[i] = &timed[i]
		if !timed[i].OK {
			failed++
			if failed <= 5 {
				p.res.Errors = append(p.res.Errors, fmt.Sprintf("%s on %s: %s", timed[i].Kernel, p.graphs[timed[i].Graph].Name, timed[i].Code))
			}
		}
	}
	t0 := time.Now()
	checked, mismatches := recheck(ptrs, oracles)
	p.res.Errors = append(p.res.Errors, mismatches...)
	p.res.Attempted = len(timed)
	p.res.Failed = failed + len(mismatches)
	p.res.Metrics["serve.ok_share"] = float64(len(timed)-failed) / float64(len(timed))
	p.cfg.Logf("serve: %d queries, %d not OK; %d answers re-checked against the oracles in %.2fs, %d wrong",
		len(timed), failed, checked, time.Since(t0).Seconds(), len(mismatches))
	return nil
}
