package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// SyncStats is the synchronization structure of one cell: the counters the
// cell's machine accumulated across its timed trials. This is the observable
// form of the paper's launch-overhead argument (§V-A): Road columns show an
// order of magnitude more regions per second of runtime than Twitter columns,
// and frameworks with persistent executors (Galois) show it least.
type SyncStats struct {
	// Workers is the machine width the cell ran with.
	Workers int
	// Regions counts parallel-loop launches (including serial fast paths);
	// SerialRegions is the inline subset (no worker woken).
	Regions       int64
	SerialRegions int64
	// Barriers counts participant shares joined at region barriers.
	Barriers int64
	// Chunks counts dynamically dispatched work units.
	Chunks int64
	// EffectiveWorkers is the mean participant count over parallel regions.
	EffectiveWorkers float64
}

func syncStatsFrom(s par.Stats) SyncStats {
	return SyncStats{
		Workers:          s.Workers,
		Regions:          s.Regions,
		SerialRegions:    s.SerialRegions,
		Barriers:         s.Barriers,
		Chunks:           s.Chunks,
		EffectiveWorkers: s.EffectiveWorkers(),
	}
}

// TrialRecord is the outcome of one sandboxed trial attempt. A retried trial
// leaves one record per attempt, so transient failures (Panicked on attempt
// 0, OK on attempt 1) stay distinguishable from deterministic ones in the
// journal.
type TrialRecord struct {
	// Trial is the trial index within the cell; Attempt is 0 for the first
	// run and counts up through retries.
	Trial   int
	Attempt int
	Status  Status
	// Seconds is the attempt's kernel wall time (meaningful for OK attempts;
	// zero when the attempt panicked before the kernel returned).
	Seconds float64
	// Err carries the panic value, oracle rejection, or timeout note.
	Err string `json:",omitempty"`
	// Stack is the trimmed goroutine stack for Panicked attempts.
	Stack string `json:",omitempty"`
}

// Result is one cell of the evaluation: a (framework, kernel, graph, mode)
// combination with its best trial time and verification status.
type Result struct {
	Framework string
	Kernel    Kernel
	Graph     string
	Mode      kernel.Mode
	// Status is the cell rollup: OK when every trial's final attempt was OK,
	// otherwise the first failing trial's final status. The zero value is OK,
	// so pre-fault-model result literals keep their meaning.
	Status Status
	// Seconds is the best (minimum) per-trial time over OK trials, GAP's
	// reporting convention for the headline tables; -1 when no trial
	// finished OK.
	Seconds float64
	// AvgSeconds is the mean over OK trials; StdDev is their standard
	// deviation. §VI notes "timings for algorithms on Road were more
	// unstable compared to other cases" — the spread is part of the result.
	AvgSeconds float64
	StdDev     float64
	Trials     int
	// Retries counts extra attempts spent on transient failures across the
	// cell's trials.
	Retries int `json:",omitempty"`
	// Resumed marks a cell replayed from a journal rather than re-run.
	Resumed bool `json:",omitempty"`
	// GraphFile is the serialized graph file the cell's input was loaded
	// from (empty for generated inputs); GraphEpoch is the input graph's
	// identity stamp (the format-v2 header checksum for saved/loaded graphs,
	// a structural hash otherwise). Together they let a resumed run prove a
	// journaled cell and the current input are the same graph.
	GraphFile  string `json:",omitempty"`
	GraphEpoch uint64 `json:",omitempty"`
	// Verified reports whether the cell finished OK (every trial returned in
	// time and, when verification is on, passed the oracle); Err carries the
	// first failure. Per §VI's call for "more formally specified verification
	// and validation procedures", a failed cell is reported, never silently
	// kept.
	Verified bool
	Err      string `json:",omitempty"`
	// TrialRecords is the per-attempt fault log (empty only for resumed
	// cells journaled by older builds).
	TrialRecords []TrialRecord `json:",omitempty"`
	// Sync is the cell's synchronization structure: the leased machine's
	// counters summed over the cell's attempts (an abandoned attempt's
	// counters cannot be read, so only its width counts).
	Sync SyncStats
}

// RetryPolicy bounds the attempts spent on a trial. Panicked and TimedOut
// can be transient (a race that fired, a scheduling hiccup against a tight
// deadline), so an attempt that ended in either is retried while attempts
// remain; VerifyFailed is a wrong answer and will be wrong again.
type RetryPolicy struct {
	// MaxRetries is the number of extra attempts per trial.
	MaxRetries int
}

// Retries reports whether an attempt that ended in s, after the given number
// of earlier attempts, is followed by another — the one retry decision, for
// the runner's trials and the daemon's queries alike. A nil policy retries
// once.
func (p *RetryPolicy) Retries(s Status, attempt int) bool {
	limit := 1
	if p != nil {
		limit = p.MaxRetries
	}
	return (s == Panicked || s == TimedOut) && attempt < limit
}

// Runner executes benchmark cells under the paper's two rule sets.
type Runner struct {
	// Trials is the number of timed trials per cell (BFS/SSSP/BC rotate
	// through the input's pre-drawn sources). Minimum 1.
	Trials int
	// BaselineWorkers and OptimizedWorkers model the paper's thread counts:
	// the Baseline data set used the 32 physical cores, the Optimized teams
	// "almost entirely" gained by also using the 32 hyperthreads. NewRunner
	// sets Baseline to max(GOMAXPROCS/2, 8) and Optimized to
	// max(GOMAXPROCS, Baseline), so a host with fewer than 16 hardware
	// threads runs both at 8 workers, oversubscribed: on a 2-CPU host 8 and
	// 8. The floor of 8 keeps each framework's synchronization structure —
	// barriers per round, worklist contention, fork/join fan-out — exercised
	// at one width on small hosts. Whether that floor or one worker per core
	// should be the default is open (ROADMAP item 7).
	BaselineWorkers  int
	OptimizedWorkers int
	// Verify enables oracle checking of every trial (untimed). Each trial's
	// output is compared with its input's oracle answer, built once per
	// (input, kernel, source or root set) and shared by every cell.
	Verify bool

	// Timeout is the per-trial deadline; zero means none. When it passes,
	// the trial's cancellation token fires and the kernel is expected to
	// drain cooperatively (DESIGN.md §9).
	Timeout time.Duration
	// Grace is how long past a fired deadline the runner waits for a kernel
	// to notice the token before abandoning its machine (default 2s), and
	// how long Close waits for abandoned machines to be joined.
	Grace time.Duration
	// Retry bounds the re-attempts of Panicked and TimedOut trials; nil
	// means one.
	Retry *RetryPolicy
	// JournalPath, when set, makes RunSuite append every completed cell to a
	// JSONL journal; with Resume also set, cells already journaled are
	// replayed instead of re-run.
	JournalPath string
	Resume      bool

	// pools holds one one-machine lease pool per mode, built lazily at the
	// mode's worker count (the Baseline 8-analogue vs the Optimized
	// hyperthread count) and reused across every cell of that mode, exactly
	// like the paper pins each rule set's thread count for a whole data set.
	// A kernel that ignores cancellation costs the pool its machine: the
	// pool replaces it at the same width and joins the stuck one when the
	// kernel returns.
	pools map[kernel.Mode]*par.Pool
}

// NewRunner returns a Runner with the defaults described on the fields.
func NewRunner() *Runner {
	base := runtime.GOMAXPROCS(0) / 2
	if base < 8 {
		base = 8
	}
	// Optimized gets the hyperthreads when the host actually has them;
	// otherwise extra workers are pure scheduling overhead and the counts
	// stay equal (the hyperthreading lever needs silicon to pull on).
	opt := runtime.GOMAXPROCS(0)
	if opt < base {
		opt = base
	}
	return &Runner{Trials: 3, BaselineWorkers: base, OptimizedWorkers: opt, Verify: true}
}

// pool returns the lease pool for the given mode, building it on first use
// at that mode's worker count.
func (r *Runner) pool(mode kernel.Mode) *par.Pool {
	if r.pools == nil {
		r.pools = make(map[kernel.Mode]*par.Pool)
	}
	p, ok := r.pools[mode]
	if !ok {
		workers := r.BaselineWorkers
		if mode == kernel.Optimized {
			workers = r.OptimizedWorkers
		}
		p = par.NewPool(1, workers)
		r.pools[mode] = p
	}
	return p
}

// Abandoned reports how many machines have been abandoned to stuck kernels
// over the Runner's lifetime.
func (r *Runner) Abandoned() int {
	n := int64(0)
	for _, p := range r.pools {
		n += p.Abandoned()
	}
	return int(n)
}

// Close drains the Runner's pools: their machines' workers are joined, and
// so are an abandoned machine's once its stuck kernel returns, for up to the
// grace period. Safe to call more than once; a closed Runner's trials report
// Skipped.
func (r *Runner) Close() {
	for _, p := range r.pools {
		_ = p.Drain(r.grace()) // only abandoned machines outlive the grace: left to their reapers
	}
}

func (r *Runner) grace() time.Duration {
	if r.Grace > 0 {
		return r.Grace
	}
	return 2 * time.Second
}

// checkOracle runs an oracle check under its own recover: a panic while
// inspecting garbage kernel output is the kernel's failure, reported as a
// verification error rather than crashing the harness.
func checkOracle(check func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("oracle panicked on kernel output: %v", p)
		}
	}()
	return check()
}

// runAttempt executes one trial attempt in the sandbox (sandbox.go) on a
// machine leased from the mode's pool, under a per-attempt cancellation token
// that the kernel options carry too. With Verify on, it first takes the
// trial's oracle answer from the input, untimed and outside the sandbox, and
// the check compares the kernel's output with it. A kernel that ignores the
// fired token past the grace period costs the pool that machine, never the
// suite: the attempt reports TimedOut and the next one gets the replacement.
func (r *Runner) runAttempt(f kernel.Framework, k Kernel, in *Input, opt kernel.Options, trial int) Outcome {
	var ref any
	if r.Verify {
		var out Outcome
		if ref, out = untimed(f, in, "reference", func() any { return in.reference(k, trial) }); out.Status != OK {
			return out
		}
	}
	var deadline time.Time // zero: no -timeout, wait for the kernel
	if r.Timeout > 0 {
		opt.Cancel = par.NewDeadlineToken(r.Timeout)
		deadline = time.Now().Add(r.Timeout)
	} else {
		opt.Cancel = par.NewCancelToken()
	}
	sb := Sandbox{
		Framework: f.Name(),
		Kernel:    k,
		Graph:     in.Spec.Name,
		Token:     opt.Cancel,
		Deadline:  deadline,
		Limit:     r.Timeout,
		Grace:     r.grace(),
		Seals:     [3]*graph.Graph{in.Graph, in.Undirected, opt.RelabeledView},
	}

	g := in.Graph
	_, out, err := RunSandboxed(r.pool(opt.Mode), sb, func(m *par.Machine) func() (struct{}, error) {
		opt.Machine = m
		var check func() error
		slot := in.trialSlot(k, trial)
		switch k {
		case BFS:
			src := in.Sources[slot]
			parent := f.BFS(g, src, opt)
			check = func() error { return verify.CompareBFS(g, src, ref.([]int32), parent) }
		case SSSP:
			dist := f.SSSP(g, in.Sources[slot], opt)
			check = func() error { return verify.CompareSSSP(ref.([]kernel.Dist), dist) }
		case PR:
			ranks := f.PR(g, opt)
			check = func() error { return verify.CheckPR(g, ranks) }
		case CC:
			labels := f.CC(g, opt)
			check = func() error { return verify.CompareCC(ref.([]graph.NodeID), labels) }
		case BC:
			scores := f.BC(g, in.BCRoots[slot], opt)
			check = func() error { return verify.CompareBC(ref.([]float64), scores) }
		case TC:
			count := f.TC(g, opt)
			check = func() error { return verify.CompareTC(ref.(int64), count) }
		}
		return func() (struct{}, error) {
			if !r.Verify {
				return struct{}{}, nil
			}
			return struct{}{}, checkOracle(check)
		}
	})
	if err != nil { // the pool drained: the Runner was closed
		return Outcome{Status: Skipped, Err: sb.fail("%v", err)}
	}
	return out
}

// prepare does a cell's untimed set-up and returns the options its trials
// share (each attempt adds its machine and token). The Optimized rule set
// knows the graph's identity, and an Optimized TC cell, the only reader of
// the input's relabeled view, gets that view, built and prepared on the first
// such cell; every other cell reads the input graph's state.
func prepare(f kernel.Framework, k Kernel, in *Input, mode kernel.Mode) (opt kernel.Options, out Outcome) {
	opt = kernel.Options{Mode: mode, Delta: in.Spec.Delta, UndirectedView: in.Undirected}
	if mode == kernel.Optimized {
		opt.GraphName = in.Spec.Name
	}
	opt.Prepared, out = untimed(f, in, "Prepare", func() any {
		if mode == kernel.Optimized && k == TC {
			opt.RelabeledView = in.RelabeledView()
		}
		return in.Prepared(f, opt.RelabeledView != nil)
	})
	return opt, out
}

// untimed runs one untimed step of a cell, named step in the error text,
// under recover: a framework's panicking Prepare fails its cell, and a
// panicking oracle its trial, instead of the suite.
func untimed(f kernel.Framework, in *Input, step string, build func() any) (v any, out Outcome) {
	defer func() {
		if pv := recover(); pv != nil {
			out.Status = Panicked
			out.Err = fmt.Sprintf("%s: panic in %s(%s): %v", f.Name(), step, in.Spec.Name, pv)
			out.Stack = TrimStack(debug.Stack())
		}
	}()
	return build(), out
}

// RunCell times one (framework, kernel, input, mode) cell. Every trial is
// sandboxed (DESIGN.md §9): panics, deadline overruns, and oracle rejections
// become per-trial statuses on the Result, never harness crashes.
func (r *Runner) RunCell(f kernel.Framework, k Kernel, in *Input, mode kernel.Mode) Result {
	res := Result{Framework: f.Name(), Kernel: k, Graph: in.Spec.Name, Mode: mode, Verified: true, Seconds: -1}
	res.GraphFile = in.File
	if in.Graph != nil {
		res.GraphEpoch = in.Graph.Epoch()
	}
	trials := r.Trials
	if trials < 1 {
		trials = 1
	}
	res.Trials = trials

	if !slices.Contains(Kernels, k) {
		res.Status = Skipped
		res.Verified = false
		res.Err = fmt.Sprintf("unknown kernel %q", k)
		return res
	}

	opt, out := prepare(f, k, in, mode)
	if out.Status != OK {
		res.Status = out.Status
		res.Verified = false
		res.Err = out.Err
		for t := 0; t < trials; t++ {
			res.TrialRecords = append(res.TrialRecords, TrialRecord{Trial: t, Status: Skipped})
		}
		return res
	}

	var counters par.Stats // the machine counters of the cell's attempts, summed
	var total float64
	var samples []float64
	record := func(sec float64) {
		if res.Seconds < 0 || sec < res.Seconds {
			res.Seconds = sec
		}
		total += sec
		samples = append(samples, sec)
	}

	failed := false
	for t := 0; t < trials; t++ {
		if failed {
			// An earlier trial failed past retries; the cell's fate is
			// sealed, so don't burn the remaining trial budget on it.
			res.TrialRecords = append(res.TrialRecords, TrialRecord{Trial: t, Status: Skipped})
			continue
		}
		var out Outcome
		for attempt := 0; ; attempt++ {
			out = r.runAttempt(f, k, in, opt, t)
			counters.Workers = max(counters.Workers, out.Stats.Workers)
			counters.Regions += out.Stats.Regions
			counters.SerialRegions += out.Stats.SerialRegions
			counters.Barriers += out.Stats.Barriers
			counters.Chunks += out.Stats.Chunks
			res.TrialRecords = append(res.TrialRecords, TrialRecord{
				Trial: t, Attempt: attempt,
				Status: out.Status, Seconds: out.Seconds,
				Err: out.Err, Stack: out.Stack,
			})
			if !r.Retry.Retries(out.Status, attempt) {
				break
			}
			res.Retries++
		}
		if out.Status == OK {
			record(out.Seconds)
		} else {
			failed = true
			if res.Status == OK {
				res.Status = out.Status
				res.Verified = false
				res.Err = out.Err
			}
		}
	}

	if len(samples) > 0 {
		res.AvgSeconds = total / float64(len(samples))
	}
	if len(samples) > 1 {
		var sq float64
		for _, s := range samples {
			d := s - res.AvgSeconds
			sq += d * d
		}
		res.StdDev = math.Sqrt(sq / float64(len(samples)-1))
	}
	res.Sync = syncStatsFrom(counters)
	return res
}

// RunSuite runs every (framework, kernel, mode) cell over the inputs, one
// input at a time (both modes inside), reporting progress through progress
// (which may be nil) and returning results in that order. With JournalPath
// set, each completed cell is appended to the JSONL journal as it finishes;
// with Resume also set, cells already journaled are replayed (marked
// Resumed) instead of re-run, so an interrupted run picks up where it died.
// The error return concerns the harness only (journal I/O); cell-level
// failures are statuses on the Results, never errors.
func (r *Runner) RunSuite(frameworks []kernel.Framework, inputs []*Input, modes []kernel.Mode, kernels []Kernel, progress func(Result)) ([]Result, error) {
	if len(kernels) == 0 {
		kernels = Kernels
	}
	var journaled map[string]Result
	if r.Resume && r.JournalPath != "" {
		prior, err := ReadJournal(r.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		journaled = make(map[string]Result, len(prior))
		for _, res := range prior {
			journaled[res.CellID()] = res
		}
	}
	var results []Result
	for _, in := range inputs {
		for _, mode := range modes {
			for _, k := range kernels {
				for _, f := range frameworks {
					if prior, ok := journaled[CellID(f.Name(), k, in.Spec.Name, mode)]; ok {
						if err := checkResumeIdentity(prior, in); err != nil {
							return results, fmt.Errorf("core: resume: %w", err)
						}
						prior.Resumed = true
						results = append(results, prior)
						if progress != nil {
							progress(prior)
						}
						continue
					}
					res := r.RunCell(f, k, in, mode)
					if r.JournalPath != "" {
						if err := AppendJournal(r.JournalPath, res); err != nil {
							return results, fmt.Errorf("core: journal: %w", err)
						}
					}
					results = append(results, res)
					if progress != nil {
						progress(res)
					}
				}
			}
		}
	}
	return results, nil
}

// checkResumeIdentity refuses to replay a journaled cell over a different
// input than the one it was measured on: the graph file name and the graph
// epoch must agree whenever both sides recorded them. (Either side may have
// none — pre-epoch journals, generated inputs — and then no claim is made.)
func checkResumeIdentity(prior Result, in *Input) error {
	if prior.GraphFile != "" && in.File != "" && prior.GraphFile != in.File {
		return fmt.Errorf("journaled cell %s was measured on %s, current input is %s — delete the journal or rerun with the original file",
			prior.CellID(), prior.GraphFile, in.File)
	}
	var epoch uint64
	if in.Graph != nil {
		epoch = in.Graph.Epoch()
	}
	if prior.GraphEpoch != 0 && epoch != 0 && prior.GraphEpoch != epoch {
		return fmt.Errorf("journaled cell %s was measured on graph epoch %#x, current input %s has epoch %#x — the input changed; delete the journal or restore the input",
			prior.CellID(), prior.GraphEpoch, in.Spec.Name, epoch)
	}
	return nil
}

// PrepareViews prepares every framework's state for each input graph up
// front, so conversion costs stay out of the timed region and off a served
// query's budget, mirroring the benchmark's untimed load phase. Each input
// keeps the state until it closes.
func PrepareViews(frameworks []kernel.Framework, inputs []*Input) {
	for _, in := range inputs {
		for _, f := range frameworks {
			in.Prepared(f, false)
		}
	}
}

// SpeedupVsReference computes Table V: the ratio reference-time /
// framework-time for every non-reference cell, keyed by (framework, kernel,
// graph, mode). A ratio of 1.0 means parity, >1 faster than GAP. Cells that
// did not finish OK — on either side of the ratio — contribute nothing: a
// crashed or timed-out cell has no time, not a time of zero.
func SpeedupVsReference(results []Result) map[string]float64 {
	ref := map[string]float64{}
	for _, res := range results {
		if res.Framework == ReferenceName && res.Status == OK && res.Verified && res.Seconds > 0 {
			ref[cellKey(string(res.Kernel), res.Graph, res.Mode)] = res.Seconds
		}
	}
	out := map[string]float64{}
	for _, res := range results {
		if res.Framework == ReferenceName {
			continue
		}
		base, ok := ref[cellKey(string(res.Kernel), res.Graph, res.Mode)]
		if !ok || res.Status != OK || !res.Verified || res.Seconds <= 0 {
			continue
		}
		out[res.Framework+"|"+cellKey(string(res.Kernel), res.Graph, res.Mode)] = base / res.Seconds
	}
	return out
}

func cellKey(k, g string, m kernel.Mode) string {
	return k + "|" + g + "|" + m.String()
}
