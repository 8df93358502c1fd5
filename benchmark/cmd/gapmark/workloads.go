package main

import (
	"time"

	"gapbench/benchmark/drive"
	"gapbench/benchmark/suite"
	"gapbench/internal/core"
)

// workload is one benchmark workload: a sweep of the batch suite on one graph
// and a served traffic mix, measured one after the other in the same run, so
// that every run yields every metric. The two workloads pair the halves by
// what bounds them; README.md says why.
type workload struct {
	Name  string
	Why   string
	Suite suite.Config
	Serve drive.Config
}

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time of one
// run, half for the sweep's timed passes and half for the served phases.
// Set-up, the verify pass and the oracle re-check come on top.
const defaultSeconds = 52

// setupReps is how often each half sets up in one run; setup_s is the sum of
// the two medians.
const setupReps = 5

var workloads = []workload{
	{
		Name: "kron-global",
		Why: "kernel-bound: sweep of 36 cells on Kron-15 (<20 par regions a trial, time is edge work) + gapd serving " +
			"PR:3,CC:1 on Kron-15/Road-16 (kernel >90% of a round trip); launch and wire costs must not show",
		Suite: suite.Config{
			Graph: "Kron", Scale: 15,
			Trials: map[core.Kernel]int{core.BFS: 8, core.SSSP: 2, core.CC: 2, core.PR: 1, core.BC: 1, core.TC: 1},
		},
		Serve: drive.Config{
			Scale: 14, Graphs: []string{"Kron", "Road"},
			Mix:   []drive.MixEntry{{Kernel: "PR", Weight: 3}, {Kernel: "CC", Weight: 1}},
			Rates: [3]float64{40, 50, 60}, Cycles: 6, OpenWeight: 3,
			Limit: 200 * time.Millisecond,
		},
	},
	{
		Name: "road-point",
		Why: "overhead-bound: sweep of 36 cells on Road-16 (hundreds to thousands of tiny regions a trial) + gapd " +
			"serving BFS:2,SSSP:1 on five scale-10 graphs (wire ~30% of a round trip); launch and wire costs show",
		Suite: suite.Config{
			Graph: "Road", Scale: 16,
			Trials: map[core.Kernel]int{core.BFS: 8, core.SSSP: 2, core.CC: 2, core.PR: 1, core.BC: 1, core.TC: 2},
		},
		Serve: drive.Config{
			Scale: 10, Graphs: []string{"Road", "Twitter", "Web", "Kron", "Urand"},
			Mix:   []drive.MixEntry{{Kernel: "BFS", Weight: 2}, {Kernel: "SSSP", Weight: 1}},
			Rates: [3]float64{500, 1000, 1500}, Cycles: 9, OpenWeight: 1,
			Limit: 5 * time.Millisecond,
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one reported number: its name, unit and which way is better.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; each has a regression
// bound in BENCHMARK.json and comes from the untraced run only.
func endToEnd() []metric {
	ms := []metric{
		{"setup_s", "s", lower},
		{"sweep_s", "s", lower},
	}
	for _, k := range core.Kernels {
		ms = append(ms, metric{"trial_ms." + string(k), "ms", lower})
	}
	return append(ms,
		metric{"qps", "1/s", higher},
		metric{"lat_p50_us", "us", lower},
		metric{"lat_p90_us", "us", lower},
		metric{"slo_rate_qps", "1/s", higher},
	)
}

// servedKernels are the kernels gapd answers.
var servedKernels = []string{"BFS", "SSSP", "PR", "CC"}

// perLayer are the metrics of single layers, named after this repository's
// packages; they have no bound and come from the traced run.
func perLayer() []metric {
	ms := []metric{
		{"generate.s", "s", lower},
		{"generate.medges_per_s", "Medges/s", higher},
		{"graph.views_s", "s", lower},
		{"graph.save_s", "s", lower},
		{"graph.save_mb_per_s", "MB/s", higher},
		{"graph.mmap_load_us", "us", lower},
		{"graph.checksum_s", "s", lower},
		{"graph.arena_mb", "MB", lower},
		{"core.load_cold_s", "s", lower},
		{"core.load_warm_s", "s", lower},
		{"core.prepare_views_s", "s", lower},
		{"core.sandbox_us_per_trial", "us", lower},
		{"core.cells_ok", "count", higher},
		{"core.cells_failed", "count", lower},
		{"core.retries", "count", lower},
	}
	for _, k := range core.Kernels {
		ms = append(ms, metric{"verify.s." + string(k), "s", lower})
	}
	for _, k := range core.Kernels {
		ms = append(ms, metric{"par.regions." + string(k), "count", lower})
	}
	ms = append(ms,
		metric{"par.barriers", "count", lower},
		metric{"par.chunks", "count", lower},
		metric{"par.serial_share", "ratio", higher},
		metric{"par.effective_workers", "count", higher},
		metric{"par.region_launch_ns", "ns", lower},
	)
	for _, fw := range core.FrameworkNames() {
		for _, k := range core.Kernels {
			ms = append(ms, metric{suite.Prefix(fw) + ".ms." + string(k), "ms", lower})
		}
	}
	for _, fw := range core.FrameworkNames() {
		ms = append(ms, metric{suite.Prefix(fw) + ".prepare_s", "s", lower})
	}
	ms = append(ms,
		metric{"grb.bfs_push_ms", "ms", lower},
		metric{"grb.bfs_pull_ms", "ms", lower},
		metric{"frontier.auto_over_best", "ratio", lower},
	)
	for _, l := range []string{"service", "kernel", "overhead", "wire"} {
		ms = append(ms,
			metric{"serve." + l + "_p50_us", "us", lower},
			metric{"serve." + l + "_p90_us", "us", lower})
	}
	for _, k := range servedKernels {
		ms = append(ms, metric{"serve.lat_p50_us." + k, "us", lower})
	}
	for _, k := range servedKernels {
		ms = append(ms, metric{"serve.lat_p99_us." + k, "us", lower})
	}
	ms = append(ms,
		metric{"serve.lat_p99_us", "us", lower},
		metric{"serve.lat_p999_us", "us", lower},
		metric{"serve.open_lo_p90_us", "us", lower},
		metric{"serve.open_mid_p90_us", "us", lower},
		metric{"serve.open_hi_p90_us", "us", lower},
		metric{"serve.open_hi_p99_us", "us", lower},
		metric{"serve.accepted", "count", higher},
		metric{"serve.ok", "count", higher},
		metric{"serve.shed_rate", "count", lower},
		metric{"serve.shed_queue", "count", lower},
		metric{"serve.breaker_shed", "count", lower},
		metric{"serve.timeouts", "count", lower},
		metric{"serve.panics", "count", lower},
		metric{"serve.retries", "count", lower},
		metric{"serve.abandoned", "count", lower},
		metric{"serve.ok_share", "ratio", higher},
		metric{"serve.req_decode_ns", "ns", lower},
		metric{"serve.resp_encode_ns", "ns", lower},
		metric{"serve.lease_cycle_ns", "ns", lower},
		metric{"driver.sent", "count", higher},
		metric{"driver.late_p50_us", "us", lower},
		metric{"driver.late_max_us", "us", lower},
		metric{"driver.encode_ns", "ns", lower},
		metric{"driver.decode_ns", "ns", lower},
		metric{"proc.gapd_rss_peak_mb", "MB", lower},
		metric{"proc.gapd_cpu_s", "s", lower},
		metric{"proc.harness_rss_peak_mb", "MB", lower},
		metric{"proc.harness_cpu_s", "s", lower},
		metric{"trace.overhead_pct", "%", lower},
	)
	return ms
}
