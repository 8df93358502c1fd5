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
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
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
		noVerify   = flag.Bool("noverify", false, "skip oracle verification of results")
		quiet      = flag.Bool("q", false, "suppress per-cell progress lines")
		timeout    = flag.Duration("timeout", 0, "per-trial deadline (0 = none); overruns mark the cell TimedOut instead of hanging the run")
		journal    = flag.String("journal", "", "append each completed cell to this JSONL journal")
		resume     = flag.Bool("resume", false, "replay cells already in -journal instead of re-running them")
	)
	flag.Parse()

	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "gapbench: -resume requires -journal")
		os.Exit(1)
	}
	if err := run(*tableFlag, *scale, *trials, *graphsFlag, *kernsFlag, *fwFlag, *modeFlag, *csvPath, *mdPath, *graphDir, *graphFiles, !*noVerify, *quiet, *timeout, *journal, *resume); err != nil {
		fmt.Fprintln(os.Stderr, "gapbench:", err)
		os.Exit(1)
	}
}

// tables are the values -table accepts, matched case-insensitively.
var tables = []string{"I", "II", "III", "IV", "V", "all"}

func run(tableSel string, scale, trials int, graphsCSV, kernelsCSV, fwCSV, modeSel, csvPath, mdPath, graphDir, graphFiles string, doVerify, quiet bool, timeout time.Duration, journal string, resume bool) error {
	frameworks, err := core.FrameworksFromCSV(fwCSV)
	if err != nil {
		return err
	}
	if fwCSV == "" {
		frameworks = core.Frameworks()
	}

	if !slices.ContainsFunc(tables, func(t string) bool { return strings.EqualFold(t, tableSel) }) {
		return fmt.Errorf("unknown table %q (want one of %s)", tableSel, strings.Join(tables, ", "))
	}
	// Static tables need no benchmark runs.
	wantTable := func(name string) bool { return strings.EqualFold(tableSel, "all") || strings.EqualFold(tableSel, name) }
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

	runCells := wantTable("IV") || wantTable("V") || csvPath != "" || mdPath != ""
	if !runCells && !wantTable("I") {
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
	defer runner.Close() // park the per-mode machines

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

	if graphFiles == "" && !quiet {
		fmt.Fprintf(os.Stderr, "generating %d graphs at base scale %d...\n", len(specs), scale)
	}
	// One input at a time: each is mounted, prepared at its first cell, run
	// in both modes and closed, frameworks' state with it, before the next.
	var stats []graph.Stats
	var names []string
	var results []core.Result
	err = core.EachInput(graphFiles, specs, graphDir, func(in *core.Input) error {
		names = append(names, in.Spec.Name)
		if wantTable("I") {
			stats = append(stats, graph.ComputeStats(in.Graph))
		}
		if !runCells {
			return nil
		}
		res, err := runner.RunSuite(frameworks, []*core.Input{in}, modes, kernels, progress)
		results = append(results, res...)
		return err
	})
	if err != nil {
		return err
	}
	if wantTable("I") {
		fmt.Println(report.TableI(names, stats))
	}
	if !runCells {
		return nil
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
