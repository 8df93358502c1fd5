// Command workload runs the workload characterization that motivated the GAP
// suite's design (§II) — instrumented BFS/SSSP/PR over the benchmark graphs,
// reporting rounds, edge traffic, frontier profiles, and direction-switch
// behaviour.
//
//	workload -scale 12
//	workload -scale 14 -graphs Road,Kron -kernels BFS,SSSP
//
// Serving load and latency are not measured here: `bash benchmark/run.sh
// --workload road-point` drives a gapd daemon (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gapbench/internal/charact"
	"gapbench/internal/core"
	"gapbench/internal/generate"
)

func main() {
	var (
		scale      = flag.Int("scale", 12, "base graph scale (log2 vertices)")
		graphsFlag = flag.String("graphs", "", "comma-separated graph subset (default all five)")
		kernsFlag  = flag.String("kernels", "BFS,SSSP,PR", "kernels to characterize")
	)
	flag.Parse()
	profiles, err := characterize(*scale, *graphsFlag, *kernsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}
	fmt.Print(charact.Report(profiles))
}

// kernelNames are the instrumented kernels, in the order a graph's rows print.
var kernelNames = []string{"BFS", "SSSP", "PR"}

// characterize profiles each named kernel on each named suite graph: one
// profile per (graph, kernel), graphs in the order named.
func characterize(scale int, graphsCSV, kernelsCSV string) ([]charact.Profile, error) {
	specs, err := core.SuiteSpecs(scale, graphsCSV)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, name := range core.SplitCSV(kernelsCSV) {
		k := strings.ToUpper(name)
		if !slices.Contains(kernelNames, k) {
			return nil, fmt.Errorf("unknown kernel %q (have %v)", name, kernelNames)
		}
		want[k] = true
	}

	var profiles []charact.Profile
	for _, spec := range specs {
		g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
		if err != nil {
			return nil, err
		}
		src := core.PickSources(g, 1, spec.SourceSeed)[0]
		for _, k := range kernelNames {
			if !want[k] {
				continue
			}
			var p charact.Profile
			switch k {
			case "BFS":
				p = charact.BFS(g, src)
			case "SSSP":
				p = charact.SSSP(g, src, spec.Delta)
			case "PR":
				p = charact.PR(g)
			}
			p.Graph = spec.Name
			profiles = append(profiles, p)
		}
	}
	return profiles, nil
}
