package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"gapbench/benchmark/measure"
)

// calibrateBounds runs every workload n times untraced, each run a fresh
// process with another seed (o.Seed, o.Seed+1, ...), and sets each end-to-end
// metric's bound to three times its widest spread over the workloads — the
// distance between the first and third quartile as a share of the median —
// rounded up to a whole percent and held between 5% and 25%. setup_s, which
// is mostly file and process creation, always gets the ceiling. It prints the
// spreads as the markdown table README.md carries, and keeps every run in
// <out>/calibrate.jsonl for -compare.
func calibrateBounds(n int, o options, benchPath string) error {
	if o.Gapd == "" {
		return fmt.Errorf("-gapd is required: the path of the built gapd binary")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return err
	}
	var runs []byte
	values := map[string]map[string][]float64{} // workload -> metric -> one value a run
	for _, w := range workloads {
		values[w.Name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := o.Seed + uint64(i)
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
				"-gapd", o.Gapd, "-out", o.Out)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			var res result
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: last line of output: %w", w.Name, seed, err)
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
			saved, err := os.ReadFile(filepath.Join(o.Out, fmt.Sprintf("%s-seed%d.json", w.Name, seed)))
			if err != nil {
				return err
			}
			runs = append(runs, saved...)
		}
	}
	if err := os.WriteFile(filepath.Join(o.Out, "calibrate.jsonl"), runs, 0o644); err != nil {
		return err
	}

	bounds := map[string]float64{}
	fmt.Printf("| metric | unit |")
	for _, w := range workloads {
		fmt.Printf(" %s median | IQR/median | range/median |", w.Name)
	}
	fmt.Printf(" bound |\n|---|---|")
	for range workloads {
		fmt.Printf("---|---|---|")
	}
	fmt.Printf("---|\n")
	for _, m := range endToEnd() {
		fmt.Printf("| `%s` | %s |", m.Name, m.Unit)
		widest := 0.0
		for _, w := range workloads {
			v := values[w.Name][m.Name]
			s := measure.Sorted(v)
			spread := measure.IQRSpread(v)
			widest = math.Max(widest, spread)
			fmt.Printf(" %.4g | %.1f%% | %.1f%% |", measure.Median(v), spread*100, (s[len(s)-1]-s[0])/measure.Median(v)*100)
		}
		bound := math.Min(maxBound, math.Max(minBound, math.Ceil(3*widest*100)/100))
		note := ""
		if 3*widest > maxBound {
			note = " (spread over a third of it)"
		}
		if m.Name == "setup_s" {
			bound = maxBound
		}
		bounds[m.Name] = bound
		fmt.Printf(" %.0f%%%s |\n", bound*100, note)
	}
	return newBenchFile(bounds).write(benchPath)
}
