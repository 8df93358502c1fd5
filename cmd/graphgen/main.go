// Command graphgen generates the benchmark graphs and serializes them to
// disk, the analogue of the GAP suite's converter producing .sg files so
// benchmark runs never pay generation time.
//
//	graphgen -out ./graphs -scale 12          # all five benchmark graphs
//	graphgen -out ./graphs -graph Road -scale 16 -seed 7
//	graphgen -out ./graphs -scale 12 -layout degree   # degree-sorted layout
//
// Files are format v2 (.sg): one arena image behind a checksummed header,
// which gapbench and gapd -graphfile / -graphdir load back zero-copy via mmap.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
)

func main() {
	var (
		out      = flag.String("out", ".", "output directory")
		scale    = flag.Int("scale", 12, "base scale (log2 approximate vertex count)")
		seed     = flag.Uint64("seed", 42, "generator seed")
		oneGraph = flag.String("graph", "", "generate only this graph (default: the full five-graph suite)")
		layout   = flag.String("layout", "plain", "vertex layout: plain (generator order) or degree (descending degree)")
	)
	flag.Parse()

	if err := run(*out, *scale, *seed, *oneGraph, *layout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(out string, scale int, seed uint64, oneGraph, layoutName string) error {
	lay, err := graph.ParseLayout(layoutName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	specs, err := core.SuiteSpecs(scale, oneGraph)
	if err != nil {
		return err
	}
	if oneGraph != "" {
		for i := range specs {
			specs[i].Seed = seed
		}
	}
	for _, spec := range specs {
		g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
		if err != nil {
			return err
		}
		if lay == graph.LayoutDegree {
			rg, _ := graph.DegreeRelabel(nil, g)
			if err := g.Close(); err != nil {
				return err
			}
			g = rg
		}
		g.SetProvenance(spec.Name, uint32(spec.Scale), spec.Seed)
		path := filepath.Join(out, core.GraphFileName(spec, "sg"))
		if err := g.SaveSG(path); err != nil {
			return err
		}
		fmt.Printf("%-8s n=%-9d m=%-10d layout=%-6s -> %s\n",
			spec.Name, g.NumNodes(), g.NumEdgesUndirected(), g.Layout(), path)
		if err := g.Close(); err != nil {
			return err
		}
	}
	return nil
}
