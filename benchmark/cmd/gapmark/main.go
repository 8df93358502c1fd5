// Command gapmark is the repository's benchmark: one command that sets up,
// runs, verifies outputs and prints every metric by name.
//
//	gapmark -gapd <path> -workload kron-global -seed 42            end-to-end metrics
//	gapmark -gapd <path> -workload kron-global -seed 42 -trace 1   per-layer metrics + span file
//	gapmark -gapd <path> -calibrate 10                             spreads -> bounds in BENCHMARK.json
//	gapmark -compare a.json b.json                                 verdict per workload x metric
//
// benchmark/run.sh builds gapmark and gapd and passes the rest through; the
// metrics, workloads and method are described in benchmark/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"gapbench/benchmark/drive"
	"gapbench/benchmark/measure"
	"gapbench/benchmark/suite"
)

// options are the settings of one run.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Gapd     string // path of the built daemon
	Out      string // directory for result and trace files
}

// env records where a run was made; every result and trace file carries it.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Load1      float64 `json:"load1_at_start"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
}

func readEnv(seed uint64) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", Seed: seed}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if _, err := fmt.Sscan(string(b), &e.Load1); err != nil {
			e.Load1 = 0 // the file has another shape here
		}
	}
	// run.sh exports the commit: the driver's checkouts are not git repositories.
	if c := os.Getenv("GAPMARK_COMMIT"); c != "" {
		e.Commit = c
	}
	return e
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result object: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what a run leaves in its result file: the result, where and how
// it was made, and what the one-line result has no room for.
type record struct {
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Env      env     `json:"env"`
	result
	SuitePasses int                 `json:"suite_passes"`
	Phases      []drive.PhaseReport `json:"open_loop_phases"`
	Errors      []string            `json:"errors,omitempty"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runWorkload measures one workload: the sweep and the served traffic, taking
// turns.
func runWorkload(w *workload, o options) (*record, error) {
	rec := &record{Workload: w.Name, Trace: o.Trace, Seconds: o.Seconds, Env: readEnv(o.Seed)}
	logf("gapmark: %s seed %d, %.0fs measuring, trace %v; nproc %d GOMAXPROCS %d %s load1 %.2f commit %s",
		w.Name, o.Seed, o.Seconds, o.Trace, rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.Go, rec.Env.Load1, rec.Env.Commit)
	half := time.Duration(o.Seconds / 2 * float64(time.Second))

	var spans *measure.Recorder
	var root int64
	if o.Trace {
		spans = measure.NewRecorder()
		root = spans.Begin(0, 0, "workload")
	}
	sc := w.Suite
	sc.Seed, sc.Budget, sc.SetupReps, sc.Rec, sc.Root, sc.Logf = o.Seed, half, setupReps, spans, root, logf
	sweep, err := suite.Start(sc)
	if err != nil {
		return nil, fmt.Errorf("suite part: %w", err)
	}
	defer sweep.Close()
	dc := w.Serve
	dc.Gapd, dc.Seed, dc.Budget, dc.SetupReps, dc.Rec, dc.Root, dc.Logf = o.Gapd, o.Seed, half, setupReps, spans, root, logf
	served, err := drive.Start(dc)
	if err != nil {
		return nil, fmt.Errorf("serve part: %w", err)
	}
	defer served.Close()
	// Passes and cycles take turns, whichever half has used less of its share
	// going next, so that each half is spread over the whole run and a slow
	// stretch of the host costs both a repetition instead of one of them
	// everything.
	for sweep.Fits() || served.Progress() < 1 {
		if sweep.Fits() && (served.Progress() >= 1 || sweep.Progress() <= served.Progress()) {
			sweep.Pass()
		} else if err := served.Cycle(); err != nil {
			return nil, fmt.Errorf("serve part: %w", err)
		}
	}
	sres := sweep.Finish()
	dres, err := served.Finish()
	if err != nil {
		return nil, fmt.Errorf("serve part: %w", err)
	}
	spans.End(root)

	all := map[string]float64{"setup_s": sres.SetupS + dres.SetupS}
	for _, m := range []map[string]float64{sres.Metrics, dres.Metrics} {
		for k, v := range m {
			all[k] = v
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		all["proc.harness_cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		all["proc.harness_rss_peak_mb"] = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	rec.Attempted = sres.Attempted + dres.Attempted
	rec.Failed = sres.Failed + dres.Failed
	rec.Errors = append(sres.Errors, dres.Errors...)
	rec.SuitePasses = sres.Passes
	rec.Phases = dres.Phases

	catalogue := endToEnd()
	if o.Trace {
		catalogue = perLayer()
		// What tracing costs: traced over untraced, the sweep by its pass wall
		// and the driver by its mean closed-loop latency, averaged.
		var over []float64
		if sres.UntracedPassS > 0 && sres.TracedPassS > 0 {
			over = append(over, (sres.TracedPassS/sres.UntracedPassS-1)*100)
		}
		if dres.UntracedLatUS > 0 && dres.TracedLatUS > 0 {
			over = append(over, (dres.TracedLatUS/dres.UntracedLatUS-1)*100)
		}
		if len(over) > 0 {
			all["trace.overhead_pct"] = measure.Mean(over)
		}
		if err := writeTrace(o, rec, spans); err != nil {
			return nil, err
		}
	}
	rec.Metrics = map[string]value{}
	for _, m := range catalogue {
		v, ok := all[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		rec.Metrics[m.Name] = value{v, m.Unit}
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	return rec, nil
}

// writeTrace checks that every span tree's parts sum to its whole within 1%
// (children inside their parents, no overlap within a trace) and writes the
// spans out.
func writeTrace(o options, rec *record, spans *measure.Recorder) error {
	all := spans.Spans()
	self, gap := measure.SelfTimes(all)
	if gap > 0.01 {
		rec.Errors = append(rec.Errors, fmt.Sprintf("trace: a span tree's parts miss its whole by %.2f%%", gap*100))
	}
	logf("gapmark: %d spans; worst tree's parts miss the whole by %.4f%%; self time by span name:", len(all), gap*100)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		logf("  %-22s %10.3f ms", name, float64(self[name])/1e6)
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return err
	}
	return measure.WriteJSONL(filepath.Join(o.Out, rec.Workload+".trace.jsonl"),
		map[string]any{"workload": rec.Workload, "seconds": rec.Seconds, "env": rec.Env}, all)
}

// report prints every metric of the run by name with unit, direction and
// bound to standard error, saves the record, and prints the contract's
// one-line result to standard output.
func report(rec *record, o options, bench *benchFile) error {
	catalogue := endToEnd()
	if rec.Trace {
		catalogue = perLayer()
	}
	logf("%-28s %16s %-9s %-7s %s", "metric", "value", "unit", "better", "bound")
	for _, m := range catalogue {
		bound := ""
		if b, ok := bench.bound(m.Name); ok {
			bound = fmt.Sprintf("%.0f%%", b*100)
		}
		logf("%-28s %16.4f %-9s %-7s %s", m.Name, rec.Metrics[m.Name].Value, m.Unit, m.Better, bound)
	}
	for _, e := range rec.Errors {
		logf("gapmark: FAILED: %s", e)
	}
	logf("gapmark: %d operations attempted, %d failed", rec.Attempted, rec.Failed)

	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Env.Seed)
	if rec.Trace {
		name = fmt.Sprintf("%s-seed%d-trace.json", rec.Workload, rec.Env.Seed)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.Out, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&o.Seed, "seed", 42, "workload seed: generator, trial sources, query and arrival schedules")
	flag.Float64Var(&o.Seconds, "seconds", defaultSeconds, "measuring time of the run, half for the sweep and half for the served phases")
	flag.IntVar(&trace, "trace", 0, "1: traced run, printing the per-layer metrics and writing <out>/<workload>.trace.jsonl")
	flag.StringVar(&o.Gapd, "gapd", "", "path of the built gapd binary (run.sh builds it)")
	flag.StringVar(&o.Out, "out", "benchmark/out", "directory for result and trace files")
	benchPath := flag.String("benchfile", "BENCHMARK.json", "the benchmark definition: bounds are read from it, and -calibrate writes them")
	calibrate := flag.Int("calibrate", 0, "run every workload this many times, each with another seed, and set the bounds in -benchfile from the spreads")
	compare := flag.Bool("compare", false, "compare the result files a.json and b.json given as arguments")
	flag.Parse()
	o.Trace = trace != 0

	bench, berr := readBenchFile(*benchPath)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		if berr != nil {
			return berr
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), bench, os.Stdout)
	case *calibrate > 0:
		return calibrateBounds(*calibrate, o, *benchPath)
	}
	w := findWorkload(o.Workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", o.Workload, workloadNames())
	}
	if o.Gapd == "" {
		return errors.New("-gapd is required: the path of the built gapd binary")
	}
	if o.Seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	rec, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	if err := report(rec, o, bench); err != nil { // bench may be nil: bounds are then left out
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gapmark:", err)
		os.Exit(1)
	}
}
