// Command gapbench runs the GAP benchmark evaluation and regenerates the
// paper's tables.
//
// Usage examples:
//
//	gapbench -table I                      # graph properties (Table I)
//	gapbench -table II                     # framework attributes
//	gapbench -table III                    # algorithm choices
//	gapbench -table IV -scale 12 -trials 3 # fastest times per cell
//	gapbench -table V  -scale 12           # speedup heat map vs GAP
//	gapbench -table all -csv results.csv   # everything + CSV export
//	gapbench -graphs Road,Kron -kernels BFS,SSSP -frameworks GAP,Galois
//	gapbench -graphfile g/kron-s13-seed42.sg,g/road-s14-seed42.sg  # mmap saved graphs
//	gapbench -savegraphs ./graphs          # save every input as format-v2 .sg
//	gapbench -tune -tunefile sched.json    # autotune GraphIt schedules, persist them
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/graphit"
	"gapbench/internal/kernel"
	"gapbench/internal/report"
)

func main() {
	var (
		tableFlag  = flag.String("table", "all", "table to produce: I, II, III, IV, V, or all")
		scale      = flag.Int("scale", 12, "base graph scale (log2 vertices); Road/Kron/Urand run 1-2 scales larger, per Table I proportions")
		trials     = flag.Int("trials", 3, "timed trials per cell")
		graphsFlag = flag.String("graphs", "", "comma-separated graph subset (default: all five)")
		kernsFlag  = flag.String("kernels", "", "comma-separated kernel subset (default: all six)")
		fwFlag     = flag.String("frameworks", "", "comma-separated framework subset (default: all six)")
		modeFlag   = flag.String("mode", "both", "baseline, optimized, or both")
		csvPath    = flag.String("csv", "", "write complete results CSV to this path")
		mdPath     = flag.String("md", "", "write Tables IV+V as Markdown to this path")
		graphDir   = flag.String("graphdir", "", "cache directory for serialized graphs (generate once, reload after)")
		graphFiles = flag.String("graphfile", "", "comma-separated serialized graph files to benchmark instead of generating the suite (format-v2 files load zero-copy via mmap)")
		saveGraphs = flag.String("savegraphs", "", "save every input graph to this directory as format-v2 .sg files")
		noVerify   = flag.Bool("noverify", false, "skip oracle verification of results")
		quiet      = flag.Bool("q", false, "suppress per-cell progress lines")
		timeout    = flag.Duration("timeout", 0, "per-trial deadline (0 = none); overruns mark the cell TimedOut instead of hanging the run")
		journal    = flag.String("journal", "", "append each completed cell to this JSONL journal")
		resume     = flag.Bool("resume", false, "replay cells already in -journal instead of re-running them")
		doTune     = flag.Bool("tune", false, "autotune GraphIt schedules for the selected inputs and kernels before benchmarking, persisting them to -tunefile")
		tuneFile   = flag.String("tunefile", "", "persistent schedule store (JSON): -tune writes it; any run with it set loads stored schedules for Optimized-mode cells")
	)
	flag.Parse()

	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "gapbench: -resume requires -journal")
		os.Exit(1)
	}
	if *doTune && *tuneFile == "" {
		fmt.Fprintln(os.Stderr, "gapbench: -tune requires -tunefile")
		os.Exit(1)
	}
	if err := run(*tableFlag, *scale, *trials, *graphsFlag, *kernsFlag, *fwFlag, *modeFlag, *csvPath, *mdPath, *graphDir, *graphFiles, *saveGraphs, !*noVerify, *quiet, *timeout, *journal, *resume, *doTune, *tuneFile); err != nil {
		fmt.Fprintln(os.Stderr, "gapbench:", err)
		os.Exit(1)
	}
}

func run(tableSel string, scale, trials int, graphsCSV, kernelsCSV, fwCSV, modeSel, csvPath, mdPath, graphDir, graphFiles, saveGraphs string, doVerify, quiet bool, timeout time.Duration, journal string, resume, doTune bool, tuneFile string) error {
	frameworks, err := core.FrameworksFromCSV(fwCSV)
	if err != nil {
		return err
	}
	if fwCSV == "" {
		frameworks = core.Frameworks()
	}

	// Static tables need no benchmark runs.
	wantTable := func(name string) bool { return tableSel == "all" || strings.EqualFold(tableSel, name) }
	if wantTable("II") {
		fmt.Println(report.TableII(frameworks))
	}
	if wantTable("III") {
		fmt.Println(report.TableIII(frameworks))
	}

	specs, err := core.SuiteSpecs(scale, graphsCSV)
	if err != nil {
		return err
	}

	needGraphs := wantTable("I") || wantTable("IV") || wantTable("V") || csvPath != "" || mdPath != ""
	if !needGraphs {
		return nil
	}

	if graphFiles == "" && !quiet {
		fmt.Fprintf(os.Stderr, "generating %d graphs at base scale %d...\n", len(specs), scale)
	}
	inputs, err := core.MountInputs(graphFiles, specs, graphDir)
	if err != nil {
		return err
	}
	defer func() {
		for _, in := range inputs {
			if err := in.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "gapbench: closing %s: %v\n", in.Spec.Name, err)
			}
		}
	}()
	var stats []graph.Stats
	var names []string
	for _, in := range inputs {
		names = append(names, in.Spec.Name)
	}
	if saveGraphs != "" {
		if err := os.MkdirAll(saveGraphs, 0o755); err != nil {
			return err
		}
		for _, in := range inputs {
			path := filepath.Join(saveGraphs, core.GraphFileName(in.Spec, "sg"))
			in.Graph.SetProvenance(in.Spec.Name, uint32(in.Spec.Scale), in.Spec.Seed)
			if err := in.Graph.SaveSG(path); err != nil {
				return err
			}
			if in.File == "" {
				in.File = path
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "saved %s\n", path)
			}
		}
	}
	if wantTable("I") {
		for _, in := range inputs {
			stats = append(stats, graph.ComputeStats(in.Graph))
		}
	}
	if wantTable("I") {
		fmt.Println(report.TableI(names, stats))
	}

	if !(wantTable("IV") || wantTable("V") || csvPath != "" || mdPath != "") {
		return nil
	}

	var kernels []core.Kernel
	if kernelsCSV != "" {
		for _, name := range core.SplitCSV(kernelsCSV) {
			k := core.Kernel(strings.ToUpper(name))
			if !slices.Contains(core.Kernels, k) {
				return fmt.Errorf("unknown kernel %q (have %v)", name, core.Kernels)
			}
			kernels = append(kernels, k)
		}
	}

	var modes []kernel.Mode
	switch strings.ToLower(modeSel) {
	case "baseline":
		modes = []kernel.Mode{kernel.Baseline}
	case "optimized":
		modes = []kernel.Mode{kernel.Optimized}
	case "both":
		modes = []kernel.Mode{kernel.Baseline, kernel.Optimized}
	default:
		return fmt.Errorf("unknown mode %q (want baseline, optimized, or both)", modeSel)
	}

	runner := core.NewRunner()
	runner.Trials = trials
	runner.Verify = doVerify
	runner.Timeout = timeout
	runner.JournalPath = journal
	runner.Resume = resume
	defer runner.Close()                  // park the per-mode machines
	core.PrepareViews(frameworks, inputs) // untimed load-phase conversions

	if tuneFile != "" {
		store, err := loadStore(tuneFile)
		if err != nil {
			return err
		}
		if doTune {
			tuned, reused := tuneSchedules(store, inputs, kernels, trials, runner.OptimizedWorkers)
			if err := saveStore(tuneFile, store); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "tune: tuned %d schedules, reused %d from %s\n", tuned, reused, tuneFile)
		}
		for _, f := range frameworks {
			if g, ok := f.(*graphit.Framework); ok {
				g.Schedules = store
			}
		}
	}

	progress := func(r core.Result) {
		if quiet {
			return
		}
		status := "ok"
		switch {
		case r.Status != core.OK:
			status = r.Status.String() + ": " + r.Err
		case r.Resumed:
			status = "ok (resumed)"
		case r.Retries > 0:
			status = fmt.Sprintf("ok (%d retries)", r.Retries)
		}
		fmt.Fprintf(os.Stderr, "%-9s %-10s %-4s %-7s best=%.4fs avg=%.4fs %s\n",
			r.Mode, r.Framework, r.Kernel, r.Graph, r.Seconds, r.AvgSeconds, status)
	}
	results, err := runner.RunSuite(frameworks, inputs, modes, kernels, progress)
	if err != nil {
		return err
	}

	if wantTable("IV") {
		fmt.Println(report.TableIV(results, names))
	}
	if wantTable("V") {
		fmt.Println(report.TableV(results, names))
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(report.CSV(results)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", csvPath)
	}
	if mdPath != "" {
		md := report.MarkdownTableIV(results, names) + report.MarkdownTableV(results, names)
		if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", mdPath)
	}
	for _, r := range results {
		if r.Status != core.OK {
			return fmt.Errorf("cells failed (first: %s %s on %s [%s]: %s)",
				r.Framework, r.Kernel, r.Graph, r.Status, r.Err)
		}
	}
	return nil
}

// tunableKernels is the subset of the suite the GraphIt scheduling language
// covers (TC has no schedule space).
var tunableKernels = map[core.Kernel]bool{"BFS": true, "SSSP": true, "PR": true, "CC": true, "BC": true}

// loadStore reads the schedule store at path. A missing file yields an empty
// store (first tuning run); a malformed or wrong-version file is an error.
func loadStore(path string) (*graphit.Store, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return graphit.NewStore(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading schedule store: %w", err)
	}
	store, err := graphit.ParseStore(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return store, nil
}

// saveStore writes the schedule store to path, creating its directory.
func saveStore(path string, store *graphit.Store) error {
	data, err := store.Encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating schedule store directory: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing schedule store: %w", err)
	}
	return nil
}

// tuneSchedules runs the autotuner for every (input, kernel) pair not already
// covered by the store — stored entries are keyed by the graph's content
// epoch, so a store tuned against different graph bytes misses cleanly and
// gets re-tuned. It returns how many schedules it tuned and how many it found.
func tuneSchedules(store *graphit.Store, inputs []*core.Input, kernels []core.Kernel, trials, workers int) (tuned, reused int) {
	if len(kernels) == 0 {
		kernels = core.Kernels
	}
	mode := kernel.Optimized.String()
	for _, in := range inputs {
		for _, k := range kernels {
			if !tunableKernels[k] {
				continue
			}
			kname := strings.ToLower(string(k))
			if _, ok := store.Lookup(kname, in.Graph.Epoch(), mode); ok {
				reused++
				continue
			}
			src := graph.NodeID(0)
			if len(in.Sources) > 0 {
				src = in.Sources[0]
			}
			best, trace := graphit.Autotune(in.Graph, kname, src, trials, workers)
			store.Put(kname, in.Graph.Epoch(), mode, best, graphit.BestSeconds(trace, best))
			tuned++
		}
	}
	return tuned, reused
}
