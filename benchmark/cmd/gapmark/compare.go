package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"gapbench/benchmark/measure"
)

// readRuns reads the untraced run records of a result file — one JSON object
// or several, one after the other — grouped by workload.
func readRuns(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//gapvet:ignore unchecked-error -- opened read-only: Close has nothing to lose
	defer f.Close()
	out := map[string][]record{}
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
}

// verdict places the change from a to b against a metric's bound. worse is
// the change in the bad direction as a share of a's median. When either
// side's own runs spread wider than the bound, the medians cannot resolve a
// change of that size: the verdict is "unresolved" unless every run of b
// reads better than every run of a.
func verdict(a, b []float64, better string, bound float64) (ratio, worse float64, v string) {
	ma, mb := measure.Median(a), measure.Median(b)
	ratio = mb / ma
	worse = ratio - 1
	if better == higher {
		worse = -worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (better == lower && y >= x) || (better == higher && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && worse < -bound:
		v = "better"
	case measure.IQRSpread(a) > bound || measure.IQRSpread(b) > bound:
		v = "unresolved"
	case worse > bound:
		v = "worse"
	case worse < -bound:
		v = "better"
	default:
		v = "within"
	}
	return ratio, worse, v
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// ratio b/a with its base, and the verdict against the metric's bound. It
// returns an error when any metric is worse, so a script can gate on it.
func compareFiles(pathA, pathB string, bench *benchFile, w io.Writer) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	worseCount := 0
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %-5s %22s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "unit", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-12s no runs on one side (%d in a, %d in b)\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, m := range endToEnd() {
			var va, vb []float64
			for _, r := range ra {
				va = append(va, r.Metrics[m.Name].Value)
			}
			for _, r := range rb {
				vb = append(vb, r.Metrics[m.Name].Value)
			}
			bound, _ := bench.bound(m.Name)
			ratio, _, v := verdict(va, vb, m.Better, bound)
			if v == "worse" {
				worseCount++
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %-5s %6.3f of %-12.4f %6.0f%%  %s (%s is better; %d vs %d runs)\n",
				wl.Name, m.Name, measure.Median(va), measure.Median(vb), m.Unit, ratio, measure.Median(va), bound*100, v, m.Better, len(va), len(vb))
		}
	}
	if worseCount > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worseCount)
	}
	return nil
}
