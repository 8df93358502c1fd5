// Command gapvet is the repository's own static-analysis pass: a vet-style
// checker for the invariants the paper's methodology depends on. It loads
// and type-checks packages with the standard library alone (go/parser +
// go/types; no x/tools) and applies the rule set from internal/analysis:
//
//	framework-isolation    frameworks must not import each other
//	par-closure-race       no unsynchronized writes to captured variables in par closures
//	index-width            grb/lagraph indices must be 64-bit (GAP spec)
//	timed-region-purity    kernel packages must not reach I/O inside timed regions,
//	                       directly or through any call chain
//	unchecked-error        cmd/ and internal/core must not drop errors
//	atomic-plain-mix       state accessed via sync/atomic must not also be accessed
//	                       plainly on a concurrent path (interprocedural)
//	lock-order             mutexes must be acquired in a consistent global order;
//	                       ABBA inversions are found across function boundaries
//	alloc-in-timed-region  no per-element allocation on the parallel hot paths of
//	                       timed kernel packages
//	swallowed-panic        recover() must record or rethrow the panic value; the
//	                       fault model sanctions no silent swallowing
//	graph-mutation         no stores through CSR memory derived from *graph.Graph
//	                       outside internal/graph (shared graphs are immutable)
//	arena-escape           no graph-derived slice may be used, returned, or
//	                       retained past Graph.Close (the arena is unmapped)
//	cancel-liveness        data-dependent kernel loops must reach a cancellation
//	                       poll or a par schedule
//
// Seven of these twelve are dataflow rules (timed-region-purity,
// atomic-plain-mix, lock-order, alloc-in-timed-region, graph-mutation,
// arena-escape, cancel-liveness): they run on a module-wide call graph built
// from per-function fact summaries (see internal/analysis/facts.go and
// writeset.go), so a violation may be reported in a function that looks
// innocent on its own — the message names the chain that convicts it.
//
// Four more rules run only under -perf, because they need a compiler run:
// gapvet rebuilds the loaded packages with -gcflags='-m=2
// -d=ssa/check_bce/debug=1', parses the escape/inline/BCE diagnostics
// (internal/analysis/compilerfacts.go), and joins them against the same
// dataflow facts:
//
//	escape-in-kernel       no heap escapes inside parallel hot loops of timed
//	                       kernel packages
//	closure-capture-hot    par closures must not capture variables whose heap
//	                       cells are re-allocated per hot call
//	bce-miss               no provably-eliminable bounds checks in innermost
//	                       parallel kernel loops
//	inline-miss            calls in innermost parallel kernel loops should
//	                       target inlinable callees
//
// Usage:
//
//	gapvet [flags] [patterns]
//
// Patterns default to ./... from the module root; "dir", "dir/...", and
// module-path forms are accepted. The flags are -perf, -json, -root and
// -list; every rule always runs (the four compiler-assisted ones under -perf
// only). Findings print one per line as
//
//	file:line: [rule] message
//
// or, under -json, as a JSON array of {file, line, col, rule, message}
// objects on stdout for CI annotation. Findings can be suppressed at the
// site with a justified comment:
//
//	//gapvet:ignore rule-name -- why this is safe
//
// Exit status: 0 clean, 1 findings, 2 usage or load error — including a
// //gapvet:ignore naming a rule that does not exist (a deleted or renamed
// rule must take its suppressions with it), and a -perf harvest in which a
// package failed to build: the perf rules would otherwise pass vacuously over
// facts the compiler never produced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"gapbench/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse flags, load packages, apply the
// rules, print findings.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gapvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: gapvet [flags] [patterns]")
		fs.PrintDefaults()
	}
	list := fs.Bool("list", false, "list the rules and exit")
	root := fs.String("root", "", "module root directory (default: nearest go.mod above the working directory)")
	perf := fs.Bool("perf", false, "run the compiler-assisted perf rules (invokes 'go build' with diagnostic flags)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	dir := *root
	if dir == "" {
		found, err := analysis.FindModuleRoot("")
		if err != nil {
			fmt.Fprintf(stderr, "gapvet: %v\n", err)
			return 2
		}
		dir = found
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		fmt.Fprintf(stderr, "gapvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "gapvet: %v\n", err)
		return 2
	}

	var cfacts *analysis.CompilerFacts
	if *perf {
		var dirs []string
		for _, pkg := range pkgs {
			if pkg.Dir != "" {
				dirs = append(dirs, pkg.Dir)
			}
		}
		cfacts, err = analysis.HarvestCompilerFacts(dir, dirs)
		if err != nil {
			fmt.Fprintf(stderr, "gapvet: %v\n", err)
			return 2
		}
		if n := len(cfacts.BuildErrors); n > 0 {
			// Packages that failed to build contributed no facts: reporting
			// "clean" over them would be vacuous.
			for _, l := range cfacts.BuildErrors {
				fmt.Fprintf(stderr, "gapvet: compiler harvest: %s\n", l)
			}
			fmt.Fprintf(stderr, "gapvet: compiler harvest: %d build error line(s); the perf rules saw incomplete facts\n", n)
			return 2
		}
	}

	diags, err := analysis.Run(pkgs, analysis.Analyzers(), cfacts)
	if err != nil {
		fmt.Fprintf(stderr, "gapvet: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "gapvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gapvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable finding shape emitted under -json,
// mirroring the canonical text form field for field so the two outputs
// round-trip.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// writeJSON renders the diagnostics as an indented JSON array ("[]" when
// clean) followed by a newline.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
