package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gapbench/internal/core"
)

// TestSmoke runs both workloads end to end at toy size — tiny graphs, one
// trial a cell, phases of a fraction of a second — untraced and traced, so
// that the harness cannot rot: set-up, passes, the verify pass, a real gapd,
// both loops, the oracle re-check and the span arithmetic all run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real gapd")
	}
	dir := t.TempDir()
	gapd := filepath.Join(dir, "gapd")
	if out, err := exec.Command("go", "build", "-o", gapd, "gapbench/cmd/gapd").CombinedOutput(); err != nil {
		t.Fatalf("building gapd: %v\n%s", err, out)
	}
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			toy := w
			toy.Suite.Scale = 8
			toy.Suite.Trials = map[core.Kernel]int{}
			for _, k := range core.Kernels {
				toy.Suite.Trials[k] = 1
			}
			toy.Serve.Scale = 6
			toy.Serve.Rates = [3]float64{1000, 2000, 3000} // enough answers for a p90 in a sixth of a second
			rec, err := runWorkload(&toy, options{Workload: w.Name, Seed: 7, Seconds: 4, Trace: trace, Gapd: gapd, Out: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rec.Failed != 0 || len(rec.Errors) != 0 || !rec.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, rec.Failed, rec.Attempted, rec.Errors)
			}
			catalogue := endToEnd()
			if trace {
				catalogue = perLayer()
			}
			if len(rec.Metrics) != len(catalogue) {
				t.Errorf("%s trace=%v: %d metrics reported, catalogue has %d", w.Name, trace, len(rec.Metrics), len(catalogue))
			}
			if !trace {
				for _, m := range catalogue {
					if rec.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, m.Name, rec.Metrics[m.Name].Value)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.jsonl")); err != nil {
				t.Errorf("%s: traced run left no span file: %v", w.Name, err)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogue holds the metric and workload tables to the limits the
// benchmark contract puts on BENCHMARK.json.
func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	check := func(ms []metric) {
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != lower && m.Better != higher {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	check(endToEnd())
	check(perLayer())
	if n := len(endToEnd()); n != 12 {
		t.Errorf("%d end-to-end metrics, want the issue's 15 less the three demoted open-loop p90s", n)
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or why is %d characters (limit 200) or has a line break", w.Name, len(w.Why))
		}
	}
}

// TestBenchmarkFileMatchesTables fails when BENCHMARK.json at the repository
// root and the program's tables have drifted apart: the file is what
// `gapmark -calibrate` writes, bounds aside.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	path := filepath.Join("..", "..", "..", "BENCHMARK.json")
	got, err := readBenchFile(path)
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json above the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	largest := 0.0
	for _, m := range got.EndToEnd {
		bounds[m.Name] = m.Bound
		largest = max(largest, m.Bound)
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
	if bounds["setup_s"] != largest {
		t.Errorf("setup_s has bound %v, the largest is %v: set-up time gets the largest", bounds["setup_s"], largest)
	}
	if want := newBenchFile(bounds); !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Errorf("BENCHMARK.json differs from the tables; rerun gapmark -calibrate\n file:   %s\n tables: %s", g, w)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100.5, 99.5}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		b      []float64
		better string
		want   string
	}{
		{scale(1.02), lower, "within"},
		{scale(1.20), lower, "worse"},
		{scale(0.80), lower, "better"},
		{scale(1.20), higher, "better"},
		{scale(0.80), higher, "worse"},
		// b's own runs spread over the 10% bound: its median proves nothing.
		{[]float64{80, 100, 120, 125, 140}, lower, "unresolved"},
		// ... unless every run of b beats every run of a.
		{[]float64{40, 50, 60, 70, 80}, lower, "better"},
	}
	for _, c := range cases {
		ratio, _, got := verdict(a, c.b, c.better, 0.10)
		if got != c.want {
			t.Errorf("b=%v, %s is better: verdict %q (ratio %.3f), want %q", c.b, c.better, got, ratio, c.want)
		}
	}
	if r, _, _ := verdict(a, scale(1.2), lower, 0.1); r < 1.19 || r > 1.21 {
		t.Errorf("ratio b/a = %v, want 1.2", r)
	}
}
