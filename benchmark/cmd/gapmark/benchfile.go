package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchFile is BENCHMARK.json. gapmark writes it whole from its own metric
// and workload tables (-calibrate), so the file and the program cannot drift
// apart; the bounds are the only part that comes from measurement.
type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []metric        `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	metric
	Bound float64 `json:"bound"`
}

const (
	// minBound keeps a bound from being set tighter than two sets of runs on
	// this host have ever agreed; maxBound is the contract's ceiling.
	minBound = 0.05
	maxBound = 0.25
)

// newBenchFile builds the file from the tables with the given bounds; a
// metric without one gets the ceiling.
func newBenchFile(bounds map[string]float64) *benchFile {
	b := &benchFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd() {
		bound, ok := bounds[m.Name]
		if !ok {
			bound = maxBound
		}
		b.EndToEnd = append(b.EndToEnd, boundedMetric{m, bound})
	}
	return b
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func (b *benchFile) write(path string) error {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// bound returns the regression bound of an end-to-end metric. A nil file has
// none.
func (b *benchFile) bound(name string) (float64, bool) {
	if b == nil {
		return 0, false
	}
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}
