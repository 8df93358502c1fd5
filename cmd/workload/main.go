// Command workload has two modes.
//
// Characterization (the default): runs the workload characterization that
// motivated the GAP suite's design (§II) — instrumented BFS/SSSP/PR over the
// benchmark graphs, reporting rounds, edge traffic, frontier profiles, and
// direction-switch behaviour.
//
//	workload -scale 12
//	workload -scale 14 -graphs Road,Kron -kernels BFS,SSSP
//
// Load driver (-addr): replays a mixed kernel query stream against a running
// gapd daemon with N concurrent clients, Zipf-skewed sources, and Poisson or
// closed-loop arrivals, then reports throughput, shed rate, and latency
// tails (p50/p99/p999). See drive.go.
//
//	workload -addr unix:/tmp/gapd.sock -clients 16 -duration 10s
//	workload -addr tcp:127.0.0.1:9736 -clients 4 -rate 200 -mix BFS:4,PR:1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gapbench/internal/charact"
	"gapbench/internal/core"
	"gapbench/internal/generate"
)

func main() {
	var (
		scale      = flag.Int("scale", 12, "base graph scale (log2 vertices)")
		graphsFlag = flag.String("graphs", "", "comma-separated graph subset (default all five)")
		kernsFlag  = flag.String("kernels", "BFS,SSSP,PR", "kernels to characterize")

		addr     = flag.String("addr", "", "gapd address (unix:/path or tcp:host:port); set to run the load driver instead of characterization")
		clients  = flag.Int("clients", 4, "driver: concurrent client connections")
		duration = flag.Duration("duration", 10*time.Second, "driver: run length")
		rate     = flag.Float64("rate", 0, "driver: total offered Poisson arrival rate in qps (0 = closed loop)")
		mix      = flag.String("mix", "", "driver: kernel mix weights, e.g. BFS:4,SSSP:2,PR:2,CC:2 (the default)")
		zipf     = flag.Float64("zipf", 1.3, "driver: source-vertex Zipf skew exponent (>1; 0 = uniform)")
		budget   = flag.Int64("budget", 0, "driver: per-query deadline budget in ms (0 = daemon default)")
		records  = flag.String("records", "", "driver: write per-query JSONL latency records here")
		bench    = flag.String("bench", "", "driver: also print a go-bench summary line named Benchmark<name>")
		seed     = flag.Int64("seed", 1, "driver: PRNG seed (client i uses seed+i)")
	)
	flag.Parse()
	var err error
	if *addr != "" {
		err = runDrive(driveConfig{
			Addr:     *addr,
			Clients:  *clients,
			Duration: *duration,
			Rate:     *rate,
			Mix:      *mix,
			Zipf:     *zipf,
			BudgetMS: *budget,
			Records:  *records,
			Bench:    *bench,
			Seed:     *seed,
		}, os.Stdout)
	} else {
		err = run(*scale, *graphsFlag, *kernsFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}
}

func run(scale int, graphsCSV, kernelsCSV string) error {
	specs, err := core.SuiteSpecs(scale, graphsCSV)
	if err != nil {
		return err
	}
	wantKernel := map[string]bool{}
	for _, k := range core.SplitCSV(kernelsCSV) {
		wantKernel[strings.ToUpper(k)] = true
	}

	var profiles []charact.Profile
	for _, spec := range specs {
		g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
		if err != nil {
			return err
		}
		src := core.PickSources(g, 1, spec.SourceSeed)[0]
		if wantKernel["BFS"] {
			p := charact.BFS(g, src)
			p.Graph = spec.Name
			profiles = append(profiles, p)
		}
		if wantKernel["SSSP"] {
			p := charact.SSSP(g, src, spec.Delta)
			p.Graph = spec.Name
			profiles = append(profiles, p)
		}
		if wantKernel["PR"] {
			p := charact.PR(g)
			p.Graph = spec.Name
			profiles = append(profiles, p)
		}
	}
	fmt.Print(charact.Report(profiles))
	return nil
}
