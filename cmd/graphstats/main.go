// Command graphstats prints Table I-style properties for graph files:
// binary .sg serializations or text edge lists (.el unweighted,
// .wel weighted — the GAP reference's interchange formats).
//
//	graphstats ./graphs/road-s14-seed42.sg ./data/some-graph.el
//	graphstats -directed ./data/links.wel
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gapbench/internal/graph"
	"gapbench/internal/report"
)

func main() {
	directed := flag.Bool("directed", false, "treat text edge lists as directed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphstats [-directed] <graph.sg|graph.el|graph.wel> [more...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	var stats []graph.Stats
	for _, path := range flag.Args() {
		g, err := load(path, *directed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphstats:", err)
			os.Exit(1)
		}
		names = append(names, strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)))
		stats = append(stats, graph.ComputeStats(g))
	}
	fmt.Print(report.TableI(names, stats))
}

// load dispatches on the file extension: text edge lists build a graph, any
// other extension is treated as a binary serialization.
func load(path string, directed bool) (*graph.Graph, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".el", ".wel":
		return graph.LoadEdgeList(path, graph.BuildOptions{Directed: directed})
	default:
		return graph.Load(path)
	}
}
