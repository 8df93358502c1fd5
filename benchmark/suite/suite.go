// Package suite measures the batch path: what one verified kernel trial
// costs under the GAP protocol, per kernel, and what a sweep of all 36
// (framework, kernel) cells costs from load to verify. Every layer is timed
// from outside, through the public functions of gapbench's packages.
package suite

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gapbench/benchmark/measure"
	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/grb"
	"gapbench/internal/kernel"
	"gapbench/internal/lagraph"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// Config describes one sweep.
type Config struct {
	// Graph and Scale name the generated input ("Kron" or "Road").
	Graph string
	Scale int
	// Seed drives the generator and the trial-source draw.
	Seed uint64
	// Trials is the number of trials per cell in one pass, per kernel.
	Trials map[core.Kernel]int
	// Budget is how long the timed passes may take in all: Sweep.Fits says
	// whether the slowest pass so far still fits.
	Budget time.Duration
	// SetupReps is how many times set-up is repeated; its time is reported
	// as the median and the last repetition's input is the one swept.
	SetupReps int
	// Rec, when not nil, makes this a traced run: spans are recorded under
	// Root, every second pass is traced, and Finish takes the direct-call
	// layer metrics.
	Rec  *measure.Recorder
	Root int64
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// Result is what one sweep measured: metrics by name (end-to-end and per
// layer together; the caller picks), the operations counted, and why any of
// them failed.
type Result struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	Errors    []string
	// SetupS is the median set-up time; Passes how many timed passes fitted
	// the budget.
	SetupS float64
	Passes int
	// TracedPassS and UntracedPassS are the median pass walls of the two
	// kinds of pass in a traced run, the suite's share of the tracing cost.
	TracedPassS, UntracedPassS float64
}

// Prefix maps a framework's display name to its metric prefix (the package
// that implements it).
func Prefix(framework string) string {
	if framework == "SuiteSparse" {
		return "lagraph"
	}
	return strings.ToLower(framework)
}

type cellKey struct {
	fw int
	k  core.Kernel
}

// Sweep is one sweep in progress: set up by Start, advanced one timed pass at
// a time by Pass so that the caller can interleave other work, and verified
// and summed up by Finish.
type Sweep struct {
	cfg    Config
	res    *Result
	spec   core.GraphSpec
	dir    string
	in     *core.Input
	fws    []kernel.Framework
	runner *core.Runner

	slots   map[cellKey][][]float64 // per cell, per pass, the trial slots' seconds
	broken  map[cellKey]bool
	walls   [2][]float64 // pass walls: [0] untraced, [1] traced
	longest time.Duration
	spent   time.Duration
	sandbox float64
	trials  int
	retries int
	cells   int64
	sync    map[core.Kernel]*syncSum
	syncAll syncSum
}

// syncSum adds up the par counters of cells.
type syncSum struct {
	regions, serial, barriers, chunks int64
	effWeighted                       float64
	trials                            int
}

func (r *Sweep) fail(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

// Start generates the input and sets up. The error return is for the
// harness's own failures (no temp dir, generator error); a wrong or crashed
// cell is a failed operation in the Result. Close must be called when Start
// succeeded.
func Start(cfg Config) (*Sweep, error) {
	tmpl, err := core.SpecForName(cfg.Graph)
	if err != nil {
		return nil, err
	}
	r := &Sweep{cfg: cfg, res: &Result{Metrics: map[string]float64{}},
		slots: map[cellKey][][]float64{}, broken: map[cellKey]bool{}, sync: map[core.Kernel]*syncSum{}}
	r.spec = tmpl
	r.spec.Scale = cfg.Scale
	r.spec.Seed = cfg.Seed
	r.spec.SourceSeed = tmpl.SourceSeed ^ (cfg.Seed * 0x9e3779b97f4a7c15)

	r.dir, err = os.MkdirTemp("", "gapmark-suite-")
	if err != nil {
		return nil, err
	}
	if err := r.setup(); err != nil {
		r.Close()
		return nil, err
	}
	r.runner = core.NewRunner()
	r.runner.Verify = false
	return r, nil
}

// Close releases the input, the runner's workers and the temp files.
func (r *Sweep) Close() {
	if r.runner != nil {
		r.runner.Close()
	}
	if r.in != nil {
		r.in.Close() // read-only mapping; nothing to lose
	}
	os.RemoveAll(r.dir)
}

// Fits reports whether another pass as long as the slowest so far fits the
// budget. The first pass always does.
func (r *Sweep) Fits() bool {
	return r.longest == 0 || r.spent+r.longest <= r.cfg.Budget
}

// Progress is the share of the budget the passes have used.
func (r *Sweep) Progress() float64 { return r.spent.Seconds() / r.cfg.Budget.Seconds() }

// Finish computes the cell estimates, runs the verify pass and, in a traced
// run, the layer probes.
func (r *Sweep) Finish() *Result {
	est, passS := r.estimates()
	r.verifyPass(est, passS)
	if r.cfg.Rec != nil {
		r.layerProbes(r.runner.BaselineWorkers)
	}
	return r.res
}

// setup runs the load path SetupReps times — cold load into a fresh
// directory (generate, build, views, save), close, warm load (mmap), prepare
// the frameworks' views — and keeps the last repetition's input. A traced
// run adds one repetition taken apart step by step, for the graph and
// generate layers.
func (r *Sweep) setup() error {
	rec, m, dir := r.cfg.Rec, r.res.Metrics, r.dir
	if rec != nil {
		if err := r.setupByLayer(filepath.Join(dir, "layers")); err != nil {
			return err
		}
	}
	var total, cold, warm, prep []float64
	for rep := 0; rep < r.cfg.SetupReps; rep++ {
		if r.in != nil {
			if err := r.in.Close(); err != nil {
				return err
			}
		}
		repDir := filepath.Join(dir, fmt.Sprintf("rep%d", rep))
		span := rec.Begin(0, r.cfg.Root, "setup")
		t0 := time.Now()
		in, err := core.LoadCachedInput(r.spec, repDir)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := in.Close(); err != nil {
			return err
		}
		t2 := time.Now()
		in, err = core.LoadCachedInput(r.spec, repDir)
		if err != nil {
			return err
		}
		t3 := time.Now()
		fws := core.Frameworks()
		core.PrepareViews(fws, []*core.Input{in})
		t4 := time.Now()
		rec.Add(0, span, "core.load_cold", t0, t1)
		rec.Add(0, span, "core.load_warm", t2, t3)
		rec.Add(0, span, "core.prepare_views", t3, t4)
		rec.End(span)
		r.in, r.fws = in, fws
		cold = append(cold, t1.Sub(t0).Seconds())
		warm = append(warm, t3.Sub(t2).Seconds())
		prep = append(prep, t4.Sub(t3).Seconds())
		total = append(total, t1.Sub(t0).Seconds()+t3.Sub(t2).Seconds()+t4.Sub(t3).Seconds())
	}
	r.res.SetupS = measure.Median(total)
	m["core.load_cold_s"] = measure.Median(cold)
	m["core.load_warm_s"] = measure.Median(warm)
	m["core.prepare_views_s"] = measure.Median(prep)
	r.cfg.Logf("suite: %s scale %d seed %d: %d nodes, %d edges; set-up %.3fs (median of %d)",
		r.spec.Name, r.spec.Scale, r.spec.Seed, r.in.Graph.NumNodes(), r.in.Graph.NumEdges(), r.res.SetupS, len(total))
	return nil
}

// setupByLayer repeats what core.LoadCachedInput and core.PrepareViews do,
// one public call at a time, so that each layer under them gets a span and a
// metric of its own.
func (r *Sweep) setupByLayer(dir string) error {
	rec, m := r.cfg.Rec, r.res.Metrics
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, core.GraphFileName(r.spec, "sg"))
	setup := rec.Begin(0, r.cfg.Root, "setup")
	defer rec.End(setup)

	cold := rec.Begin(0, setup, "core.load_cold")
	t0 := time.Now()
	g, err := generate.ByName(r.spec.Name, r.spec.Scale, r.spec.Seed)
	if err != nil {
		return err
	}
	t1 := time.Now()
	in := core.PrepareInput(r.spec, g)
	t2 := time.Now()
	g.SetProvenance(r.spec.Name, uint32(r.spec.Scale), r.spec.Seed)
	if err := g.SaveSG(path); err != nil {
		return err
	}
	t3 := time.Now()
	rec.Add(0, cold, "generate", t0, t1)
	rec.Add(0, cold, "graph.views", t1, t2)
	rec.Add(0, cold, "graph.save", t2, t3)
	rec.End(cold)
	edges := float64(g.NumEdges())
	if err := in.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	warm := rec.Begin(0, setup, "core.load_warm")
	t4 := time.Now()
	g, err = graph.Load(path)
	if err != nil {
		return err
	}
	t5 := time.Now()
	in = core.PrepareInput(r.spec, g)
	in.File = path
	t6 := time.Now()
	rec.Add(0, warm, "graph.mmap_load", t4, t5)
	rec.Add(0, warm, "graph.views", t5, t6)
	rec.End(warm)
	defer in.Close() // read-only mapping; nothing to lose

	t7 := time.Now()
	if err := g.VerifyChecksums(); err != nil {
		return fmt.Errorf("checksums of the file just written: %w", err)
	}
	t8 := time.Now()
	rec.Add(0, setup, "graph.checksum", t7, t8)

	prep := rec.Begin(0, setup, "core.prepare_views")
	for _, f := range core.Frameworks() {
		p0 := time.Now()
		if p, ok := f.(kernel.Preparer); ok {
			p.Prepare(in.Graph, in.Undirected)
		}
		p1 := time.Now()
		rec.Add(0, prep, Prefix(f.Name())+".prepare", p0, p1)
		m[Prefix(f.Name())+".prepare_s"] = p1.Sub(p0).Seconds()
	}
	rec.End(prep)

	m["generate.s"] = t1.Sub(t0).Seconds()
	m["generate.medges_per_s"] = edges / 1e6 / t1.Sub(t0).Seconds()
	m["graph.views_s"] = t2.Sub(t1).Seconds()
	m["graph.save_s"] = t3.Sub(t2).Seconds()
	m["graph.save_mb_per_s"] = float64(fi.Size()) / 1e6 / t3.Sub(t2).Seconds()
	m["graph.mmap_load_us"] = float64(t5.Sub(t4).Microseconds())
	m["graph.checksum_s"] = t8.Sub(t7).Seconds()
	var arena int64
	seen := map[*graph.Arena]bool{}
	for _, v := range []*graph.Graph{in.Graph, in.Undirected, in.Relabeled} {
		if a := v.Arena(); a != nil && !seen[a] {
			seen[a] = true
			arena += a.Size()
		}
	}
	m["graph.arena_mb"] = float64(arena) / 1e6
	return nil
}

// Pass runs one timed pass: every cell once, verification off, each cell's
// trial slot i on source i. Passes are interleaved with whatever the caller
// does between them, so a host slowdown spoils one pass of every cell, not
// every trial of one cell.
func (r *Sweep) Pass() {
	pass := len(r.walls[0]) + len(r.walls[1])
	rec := r.cfg.Rec
	if pass%2 == 0 {
		rec = nil // a traced run leaves every other pass untraced, to price the tracing
	}
	p0 := time.Now()
	passSpan := rec.Begin(0, r.cfg.Root, "pass")
	for _, k := range core.Kernels {
		r.runner.Trials = r.cfg.Trials[k]
		for fi, f := range r.fws {
			key := cellKey{fi, k}
			c0 := time.Now()
			res := r.runner.RunCell(f, k, r.in, kernel.Baseline)
			c1 := time.Now()
			r.retries += res.Retries
			if res.Status != core.OK {
				if !r.broken[key] {
					r.fail("%s %s: timed pass %d: %s: %s", f.Name(), k, pass, res.Status, res.Err)
				}
				r.broken[key] = true
				continue
			}
			row := make([]float64, res.Trials)
			sum := 0.0
			for _, tr := range res.TrialRecords {
				if tr.Status == core.OK {
					row[tr.Trial] = tr.Seconds
					sum += tr.Seconds
				}
			}
			r.slots[key] = append(r.slots[key], row)
			r.sandbox += c1.Sub(c0).Seconds() - sum
			r.trials += res.Trials
			if rec != nil {
				// One trace per cell; the trials are laid end to end from the
				// cell's start, because RunCell reports their lengths only.
				r.cells++
				cell := rec.Add(r.cells, passSpan, "core.cell", c0, c1)
				at := c0
				for _, tr := range res.TrialRecords {
					end := at.Add(time.Duration(tr.Seconds * float64(time.Second)))
					rec.Add(r.cells, cell, Prefix(f.Name())+"."+string(k), at, end)
					at = end
				}
			}
			ks := r.sync[k]
			if ks == nil {
				ks = &syncSum{}
				r.sync[k] = ks
			}
			for _, s := range []*syncSum{ks, &r.syncAll} {
				s.regions += res.Sync.Regions
				s.serial += res.Sync.SerialRegions
				s.barriers += res.Sync.Barriers
				s.chunks += res.Sync.Chunks
				s.effWeighted += res.Sync.EffectiveWorkers * float64(res.Sync.Regions-res.Sync.SerialRegions)
				s.trials += res.Trials
			}
		}
	}
	rec.End(passSpan)
	wall := time.Since(p0)
	r.longest = max(r.longest, wall)
	r.spent += wall
	r.walls[pass%2] = append(r.walls[pass%2], wall.Seconds())
	r.cfg.Logf("suite: pass %d took %.2fs", pass, wall.Seconds())
}

// estimates returns each cell's time estimate in seconds (min across passes
// per trial slot, mean over slots) and the fastest pass's wall time. A cell
// that failed in any pass has no estimate and is counted failed by
// verifyPass.
func (r *Sweep) estimates() (est map[cellKey]float64, passS float64) {
	m := r.res.Metrics
	est = map[cellKey]float64{}
	for _, k := range core.Kernels {
		var perFW []float64
		for fi, f := range r.fws {
			key := cellKey{fi, k}
			if r.broken[key] || len(r.slots[key]) == 0 {
				continue
			}
			est[key] = measure.MinAcrossPasses(r.slots[key])
			m[Prefix(f.Name())+".ms."+string(k)] = est[key] * 1e3
			perFW = append(perFW, est[key]*1e3)
		}
		// Geometric mean, so one slow framework (GraphIt's label-propagation
		// CC, LAGraph's Road BC) cannot drown the other five.
		m["trial_ms."+string(k)] = measure.Geomean(perFW)
		if ks := r.sync[k]; ks != nil && ks.trials > 0 {
			m["par.regions."+string(k)] = float64(ks.regions) / float64(ks.trials)
		}
	}
	walls := append(append([]float64(nil), r.walls[0]...), r.walls[1]...)
	r.res.Passes = len(walls)
	r.res.UntracedPassS = measure.Median(r.walls[0])
	r.res.TracedPassS = measure.Median(r.walls[1])
	all := &r.syncAll
	if r.trials > 0 {
		m["core.sandbox_us_per_trial"] = r.sandbox / float64(r.trials) * 1e6
		m["par.barriers"] = float64(all.barriers) / float64(all.trials)
		m["par.chunks"] = float64(all.chunks) / float64(all.trials)
	}
	if all.regions > 0 {
		m["par.serial_share"] = float64(all.serial) / float64(all.regions)
	}
	if parallel := all.regions - all.serial; parallel > 0 {
		m["par.effective_workers"] = all.effWeighted / float64(parallel)
	}
	m["core.retries"] = float64(r.retries)
	return est, measure.Sorted(walls)[0]
}

// verifyPass checks every cell once against the oracles, untimed: one
// RunCell with Verify on per cell, except TC, whose oracle is the expensive
// one (seconds at Kron scale 16) and is computed once per graph and compared
// with each framework's own count.
func (r *Sweep) verifyPass(est map[cellKey]float64, passS float64) {
	rec, m, runner := r.cfg.Rec, r.res.Metrics, r.runner
	v0 := time.Now()
	span := rec.Begin(0, r.cfg.Root, "verify")
	runner.Verify, runner.Trials = true, 1
	ok := 0
	for _, k := range core.Kernels {
		if k == core.TC {
			continue
		}
		over := 0.0
		for fi, f := range r.fws {
			c0 := time.Now()
			res := runner.RunCell(f, k, r.in, kernel.Baseline)
			wall := time.Since(c0).Seconds()
			if _, timed := est[cellKey{fi, k}]; !timed {
				continue // already reported by the timed passes
			}
			if res.Status != core.OK {
				r.fail("%s %s: verify: %s: %s", f.Name(), k, res.Status, res.Err)
				continue
			}
			ok++
			over += wall - res.AvgSeconds
		}
		m["verify.s."+string(k)] = over
	}

	t0 := time.Now()
	want := verify.Triangles(r.in.Undirected)
	over := time.Since(t0).Seconds()
	mach := par.NewMachine(runner.BaselineWorkers)
	defer mach.Close()
	opt := r.options(runner.BaselineWorkers, mach)
	for fi, f := range r.fws {
		if _, timed := est[cellKey{fi, core.TC}]; !timed {
			continue
		}
		got, err := countTriangles(f, r.in.Graph, opt)
		switch {
		case err != nil:
			r.fail("%s TC: verify: %v", f.Name(), err)
		case got != want:
			r.fail("%s TC: verify: count = %d, oracle says %d", f.Name(), got, want)
		default:
			ok++
		}
	}
	m["verify.s.TC"] = over
	rec.End(span)

	r.res.Attempted = len(r.fws) * len(core.Kernels)
	r.res.Failed = r.res.Attempted - ok
	m["core.cells_ok"] = float64(ok)
	m["core.cells_failed"] = float64(r.res.Failed)
	verifyS := time.Since(v0).Seconds()
	m["sweep_s"] = passS + verifyS
	r.cfg.Logf("suite: verify pass took %.2fs, %d of %d cells OK", verifyS, ok, r.res.Attempted)
}

// options is the Baseline kernel.Options the Runner would build, for the
// direct framework calls the Runner does not expose.
func (r *Sweep) options(workers int, m *par.Machine) kernel.Options {
	return kernel.Options{
		Mode:           kernel.Baseline,
		Delta:          r.in.Spec.Delta,
		Workers:        workers,
		UndirectedView: r.in.Undirected,
		Machine:        m,
	}
}

// countTriangles calls a framework's TC outside the Runner's sandbox, so a
// panic is turned into an error here.
func countTriangles(f kernel.Framework, g *graph.Graph, opt kernel.Options) (count int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f.TC(g, opt), nil
}

// layerProbes takes the layer metrics that need direct calls: the cost of
// launching an empty parallel region, and LAGraph's BFS with the push/pull
// direction pinned each way against the automatic choice.
func (r *Sweep) layerProbes(workers int) {
	m := r.res.Metrics
	mach := par.NewMachine(workers)
	defer mach.Close()
	const launches = 10000
	for i := 0; i < 100; i++ {
		mach.For(workers, workers, func(int) {})
	}
	t0 := time.Now()
	for i := 0; i < launches; i++ {
		mach.For(workers, workers, func(int) {})
	}
	m["par.region_launch_ns"] = float64(time.Since(t0).Nanoseconds()) / launches

	lg := lagraph.New()
	lg.Prepare(r.in.Graph, r.in.Undirected)
	opt := r.options(workers, mach)
	sources := r.in.Sources
	if len(sources) > 4 {
		sources = sources[:4]
	}
	bfsMS := func(policy grb.DirPolicy) float64 {
		lg.BFSWithPolicy(r.in.Graph, sources[0], opt, policy) // warm the scratch buffers
		t0 := time.Now()
		for _, src := range sources {
			lg.BFSWithPolicy(r.in.Graph, src, opt, policy)
		}
		return time.Since(t0).Seconds() * 1e3 / float64(len(sources))
	}
	auto, push, pull := bfsMS(grb.DirAuto), bfsMS(grb.DirPush), bfsMS(grb.DirPull)
	m["grb.bfs_push_ms"] = push
	m["grb.bfs_pull_ms"] = pull
	m["frontier.auto_over_best"] = auto / min(push, pull)
}
