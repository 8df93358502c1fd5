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
	// Sync is the cell's synchronization structure, accumulated over the
	// timed trials from the mode's machine (reset per cell; after a
	// mid-cell machine abandonment it covers the replacement machine's
	// trials only).
	Sync SyncStats
}

// RetryPolicy decides which trial failures are worth a second attempt.
type RetryPolicy struct {
	// MaxRetries is the number of extra attempts per trial.
	MaxRetries int
	// RetryOn reports whether a status should be treated as transient. Nil
	// retries nothing.
	RetryOn func(Status) bool
}

// DefaultRetryPolicy retries Panicked and TimedOut trials once: those can be
// transient (a race that fired, a scheduling hiccup against a tight
// deadline), whereas VerifyFailed is a wrong answer and will be wrong again.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{
		MaxRetries: 1,
		RetryOn:    func(s Status) bool { return s == Panicked || s == TimedOut },
	}
}

// Retries reports whether an attempt that ended in s, after the given number
// of earlier attempts, is followed by another — the one retry decision, for
// the runner's trials and the daemon's queries alike. A nil policy is
// DefaultRetryPolicy.
func (p *RetryPolicy) Retries(s Status, attempt int) bool {
	if s == OK {
		return false
	}
	if p == nil {
		p = DefaultRetryPolicy()
	}
	return attempt < p.MaxRetries && p.RetryOn != nil && p.RetryOn(s)
}

// Runner executes benchmark cells under the paper's two rule sets.
type Runner struct {
	// Trials is the number of timed trials per cell (BFS/SSSP/BC rotate
	// through the input's pre-drawn sources). Minimum 1.
	Trials int
	// BaselineWorkers and OptimizedWorkers model the paper's thread counts:
	// the Baseline data set used the 32 physical cores, the Optimized teams
	// "almost entirely" gained by also using the 32 hyperthreads. The worker
	// counts are fixed (defaults 8 and 16) rather than derived from the host
	// CPU count: each framework's synchronization structure — barriers per
	// round, worklist contention, fork/join fan-out — is then exercised
	// identically everywhere, and on few-core hosts the goroutine scheduler
	// still charges every barrier its real cost, which is precisely the
	// quantity the paper's Road analysis is about.
	BaselineWorkers  int
	OptimizedWorkers int
	// Verify enables oracle checking of every trial (untimed).
	Verify bool

	// Timeout is the per-trial deadline; zero means none. When it passes,
	// the trial's cancellation token fires and the kernel is expected to
	// drain cooperatively (DESIGN.md §9).
	Timeout time.Duration
	// Grace is how long past a fired deadline the runner waits for a kernel
	// to notice the token before abandoning its machine (default 2s).
	Grace time.Duration
	// Retry decides which trial failures get re-attempted; nil means the
	// default policy (one retry for Panicked/TimedOut).
	Retry *RetryPolicy
	// JournalPath, when set, makes RunSuite append every completed cell to a
	// JSONL journal; with Resume also set, cells already journaled are
	// replayed instead of re-run.
	JournalPath string
	Resume      bool

	// machines holds one persistent worker pool per mode, built lazily at
	// the mode's worker count (the Baseline 8-analogue vs the Optimized
	// hyperthread count) and reused across every cell of that mode, exactly
	// like the paper pins each rule set's thread count for a whole data set.
	machines map[kernel.Mode]*par.Machine
	// abandoned holds machines dropped mid-trial because a kernel ignored
	// cancellation past the grace period. Their workers may still be running
	// the stuck kernel, so Close must not join them; ReapAbandoned does,
	// for callers that know the stuck kernels eventually return.
	abandoned []*par.Machine
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

// machine returns the persistent pool for the given mode, building it on
// first use at that mode's worker count (and rebuilding it after an
// abandonment dropped the previous one).
func (r *Runner) machine(mode kernel.Mode) *par.Machine {
	if r.machines == nil {
		r.machines = make(map[kernel.Mode]*par.Machine)
	}
	m, ok := r.machines[mode]
	if !ok {
		workers := r.BaselineWorkers
		if mode == kernel.Optimized {
			workers = r.OptimizedWorkers
		}
		m = par.NewMachine(workers)
		r.machines[mode] = m
	}
	return m
}

// abandonMachine removes a poisoned machine from service: the next cell (or
// retry) of the mode lazily builds a fresh pool, and the stuck one is parked
// on the abandoned list so Close never blocks on it.
func (r *Runner) abandonMachine(mode kernel.Mode, m *par.Machine) {
	if r.machines[mode] == m {
		delete(r.machines, mode)
	}
	r.abandoned = append(r.abandoned, m)
}

// Abandoned reports how many machines have been abandoned to stuck kernels
// over the Runner's lifetime.
func (r *Runner) Abandoned() int { return len(r.abandoned) }

// ReapAbandoned joins the workers of every abandoned machine and clears the
// list. It blocks until the stuck kernels actually return, so it is only
// safe when they eventually do (tests use it for goroutine accounting);
// production callers normally leave abandoned machines to process exit.
func (r *Runner) ReapAbandoned() {
	for _, m := range r.abandoned {
		m.Close()
	}
	r.abandoned = nil
}

// Close parks the Runner's live machines, joining every pool worker (but not
// workers of abandoned machines — see ReapAbandoned). Safe to call more than
// once; a closed Runner still runs cells (regions degrade to serial
// execution on the calling goroutine).
func (r *Runner) Close() {
	for _, m := range r.machines {
		m.Close()
	}
}

func (r *Runner) grace() time.Duration {
	if r.Grace > 0 {
		return r.Grace
	}
	return 2 * time.Second
}

// options assembles the kernel.Options for one cell under the mode's rules.
func (r *Runner) options(in *Input, mode kernel.Mode) kernel.Options {
	opt := kernel.Options{
		Mode:           mode,
		Delta:          in.Spec.Delta,
		Workers:        r.BaselineWorkers,
		UndirectedView: in.Undirected,
		Machine:        r.machine(mode),
	}
	if mode == kernel.Optimized {
		// Optimized rule set: per-graph identity is known, hyperthreads are
		// allowed, and relabeling time may be excluded.
		opt.GraphName = in.Spec.Name
		opt.Workers = r.OptimizedWorkers
		opt.RelabeledView = in.Relabeled
	}
	return opt
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

// runAttempt executes one trial attempt in the sandbox (sandbox.go) on the
// mode's machine, under a per-attempt cancellation token that the kernel
// options carry too. A kernel that ignores the fired token past the grace
// period costs the runner that machine, never the suite: the attempt reports
// TimedOut and the next one gets a fresh pool.
func (r *Runner) runAttempt(f kernel.Framework, k Kernel, in *Input, mode kernel.Mode, trial int) Outcome {
	opt := r.options(in, mode)
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
		Machine:   opt.Machine,
		Token:     opt.Cancel,
		Deadline:  deadline,
		Limit:     r.Timeout,
		Grace:     r.grace(),
		Seals:     [3]*graph.Graph{in.Graph, in.Undirected, in.Relabeled},
	}

	g := in.Graph
	_, out := RunSandboxed(sb, func() func() (struct{}, error) {
		var check func() error
		switch k {
		case BFS:
			src := in.Sources[trial%len(in.Sources)]
			parent := f.BFS(g, src, opt)
			check = func() error { return verify.CheckBFS(g, src, parent) }
		case SSSP:
			src := in.Sources[trial%len(in.Sources)]
			dist := f.SSSP(g, src, opt)
			check = func() error { return verify.CheckSSSP(g, src, dist) }
		case PR:
			ranks := f.PR(g, opt)
			check = func() error { return verify.CheckPR(g, ranks) }
		case CC:
			labels := f.CC(g, opt)
			check = func() error { return verify.CheckCC(g, labels) }
		case BC:
			roots := in.BCRoots[trial%len(in.BCRoots)]
			scores := f.BC(g, roots, opt)
			check = func() error { return verify.CheckBC(g, roots, scores) }
		case TC:
			count := f.TC(g, opt)
			check = func() error { return verify.CheckTC(in.Undirected, count) }
		}
		return func() (struct{}, error) {
			if !r.Verify {
				return struct{}{}, nil
			}
			return struct{}{}, checkOracle(check)
		}
	})
	if out.Abandoned {
		r.abandonMachine(mode, sb.Machine)
	}
	return out
}

// prepare runs a framework's untimed load-time conversion under recover, so
// a panicking Prepare fails its cell instead of the suite.
func prepare(f kernel.Framework, in *Input) (out Outcome) {
	p, ok := f.(kernel.Preparer)
	if !ok {
		return out
	}
	defer func() {
		if pv := recover(); pv != nil {
			out.Status = Panicked
			out.Err = fmt.Sprintf("%s: panic in Prepare(%s): %v", f.Name(), in.Spec.Name, pv)
			out.Stack = TrimStack(debug.Stack())
		}
	}()
	p.Prepare(in.Graph, in.Undirected)
	return out
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

	if out := prepare(f, in); out.Status != OK {
		res.Status = out.Status
		res.Verified = false
		res.Err = out.Err
		for t := 0; t < trials; t++ {
			res.TrialRecords = append(res.TrialRecords, TrialRecord{Trial: t, Status: Skipped})
		}
		return res
	}

	// Per-cell stats window: the counters accumulated during this cell's
	// trials become the cell's SyncStats block.
	r.machine(mode).ResetStats()

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
			out = r.runAttempt(f, k, in, mode, t)
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
	res.Sync = syncStatsFrom(r.machine(mode).Stats())
	return res
}

// RunSuite runs every (framework, kernel, mode) cell over the inputs,
// reporting progress through progress (which may be nil). With JournalPath
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
	for _, mode := range modes {
		for _, in := range inputs {
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

// PrepareViews warms each graph's per-framework internal representations so
// conversion costs stay out of the timed region, mirroring the benchmark's
// untimed load phase.
func PrepareViews(frameworks []kernel.Framework, inputs []*Input) {
	for _, f := range frameworks {
		p, ok := f.(kernel.Preparer)
		if !ok {
			continue
		}
		for _, in := range inputs {
			p.Prepare(in.Graph, in.Undirected)
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
