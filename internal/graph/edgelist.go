package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text edge-list support, matching the GAP reference's .el/.wel formats: one
// edge per line ("u v" or "u v w"), '#' comments, blank lines ignored. This
// is the interchange path for loading real datasets into the benchmark.

// ReadEdgeList parses a text edge list. It returns the edges and whether a
// weight column was present (mixed lines are an error). Unweighted edges get
// weight 1.
func ReadEdgeList(r io.Reader) ([]WEdge, bool, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []WEdge
	weighted := false
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, false, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, false, fmt.Errorf("graph: line %d: bad source %q", lineNo, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, false, fmt.Errorf("graph: line %d: bad destination %q", lineNo, fields[1])
		}
		w := int64(1)
		if len(fields) == 3 {
			if len(edges) > 0 && !weighted {
				return nil, false, fmt.Errorf("graph: line %d: weight column appears mid-file", lineNo)
			}
			weighted = true
			if w, err = strconv.ParseInt(fields[2], 10, 32); err != nil {
				return nil, false, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
		} else if weighted {
			return nil, false, fmt.Errorf("graph: line %d: weight column disappears mid-file", lineNo)
		}
		edges = append(edges, WEdge{U: NodeID(u), V: NodeID(v), W: Weight(w)})
	}
	if err := scanner.Err(); err != nil {
		return nil, false, err
	}
	return edges, weighted, nil
}

// LoadEdgeList reads a .el/.wel file and builds a graph with the given
// options. For unweighted files the resulting graph is unweighted.
func LoadEdgeList(path string, opt BuildOptions) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	edges, weighted, err := ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g, err := BuildWeighted(edges, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !weighted {
		g.outWeight, g.inWeight = nil, nil
	}
	return g, nil
}
