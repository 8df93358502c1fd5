package report

// latency.go summarizes served-query latency records from the gapd load
// driver (cmd/workload -addr ...): throughput, shed rate, and the tail
// quantiles the serving layer's deadline/admission design is judged by.
// Records travel as JSONL — one object per query — so runs can be archived
// next to the benchmark journal and re-summarized offline.

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// QueryRecord is one served query as observed by the load driver.
type QueryRecord struct {
	// OffsetMicros is the send time relative to the run start.
	OffsetMicros int64 `json:"t_us"`
	// Micros is the round trip the client observed, request written to
	// response parsed — the figure every summary here is computed from.
	// ServerMicros is the service time the daemon reported for the same
	// query (admission to response; no socket, no codecs), kept alongside so
	// the wire's share can be read off a record; 0 when none was reported.
	Micros       int64 `json:"us"`
	ServerMicros int64 `json:"server_us,omitempty"`
	// Code is the response code string (serve.Code values: "OK",
	// "RESOURCE_EXHAUSTED", ...).
	Code string `json:"code"`
	// Kernel and Graph are the query coordinates.
	Kernel string `json:"kernel,omitempty"`
	Graph  string `json:"graph,omitempty"`
	// Client is the driver's client index, for per-connection forensics.
	Client int `json:"client"`
}

// shedCode mirrors serve.Code.Shed without importing the serving package:
// deliberate refusals, not failures.
func shedCode(code string) bool {
	return code == "RESOURCE_EXHAUSTED" || code == "UNAVAILABLE"
}

// LatencySummary aggregates one load-driver run.
type LatencySummary struct {
	Count  int // every response received
	OK     int
	Shed   int // admission/quarantine/drain refusals
	Failed int // everything else: deadline, panic, bad request

	WallSeconds float64
	// QPS is completed-OK throughput; OfferedQPS counts every query sent.
	QPS        float64
	OfferedQPS float64
	// ShedRate is Shed/Count.
	ShedRate float64

	// Latency quantiles in microseconds, over OK responses only (shed
	// responses return in microseconds by design and would flatter the tail).
	MeanMicros int64
	P50Micros  int64
	P90Micros  int64
	P99Micros  int64
	P999Micros int64
	MaxMicros  int64
}

// Summarize folds the records of one run; wall is the measured run length.
func Summarize(records []QueryRecord, wall time.Duration) LatencySummary {
	s := LatencySummary{Count: len(records), WallSeconds: wall.Seconds()}
	var okLat []int64
	var sum int64
	for _, r := range records {
		switch {
		case r.Code == "OK":
			s.OK++
			okLat = append(okLat, r.Micros)
			sum += r.Micros
		case shedCode(r.Code):
			s.Shed++
		default:
			s.Failed++
		}
	}
	if s.WallSeconds > 0 {
		s.QPS = float64(s.OK) / s.WallSeconds
		s.OfferedQPS = float64(s.Count) / s.WallSeconds
	}
	if s.Count > 0 {
		s.ShedRate = float64(s.Shed) / float64(s.Count)
	}
	if len(okLat) > 0 {
		sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
		s.MeanMicros = sum / int64(len(okLat))
		s.P50Micros = quantileMicros(okLat, 0.50)
		s.P90Micros = quantileMicros(okLat, 0.90)
		s.P99Micros = quantileMicros(okLat, 0.99)
		s.P999Micros = quantileMicros(okLat, 0.999)
		s.MaxMicros = okLat[len(okLat)-1]
	}
	return s
}

// quantileMicros is the nearest-rank quantile of a sorted sample.
func quantileMicros(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders the summary as the driver's human-readable report.
func (s LatencySummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries %d (ok %d, shed %d, failed %d)  wall %.2fs\n",
		s.Count, s.OK, s.Shed, s.Failed, s.WallSeconds)
	fmt.Fprintf(&b, "throughput %.1f qps ok (%.1f offered)  shed rate %.2f%%\n",
		s.QPS, s.OfferedQPS, 100*s.ShedRate)
	fmt.Fprintf(&b, "latency us: p50 %d  p90 %d  p99 %d  p999 %d  max %d  mean %d\n",
		s.P50Micros, s.P90Micros, s.P99Micros, s.P999Micros, s.MaxMicros, s.MeanMicros)
	return b.String()
}

// LatencyByKernel renders a per-kernel breakdown table: count, error/shed
// splits, and the tail per query type.
func LatencyByKernel(records []QueryRecord, wall time.Duration) string {
	byKernel := map[string][]QueryRecord{}
	var order []string
	for _, r := range records {
		k := r.Kernel
		if k == "" {
			k = "?"
		}
		if _, ok := byKernel[k]; !ok {
			order = append(order, k)
		}
		byKernel[k] = append(byKernel[k], r)
	}
	sort.Strings(order)
	t := &table{header: []string{"Kernel", "Count", "OK", "Shed", "Failed", "p50us", "p99us", "p999us"}}
	for _, k := range order {
		sub := Summarize(byKernel[k], wall)
		t.addRow(k,
			fmt.Sprintf("%d", sub.Count), fmt.Sprintf("%d", sub.OK),
			fmt.Sprintf("%d", sub.Shed), fmt.Sprintf("%d", sub.Failed),
			fmt.Sprintf("%d", sub.P50Micros), fmt.Sprintf("%d", sub.P99Micros),
			fmt.Sprintf("%d", sub.P999Micros))
	}
	return t.String()
}

// BenchLine renders the summary as one go-test benchmark line, so
// scripts/bench.sh's awk folding ingests serving-layer runs next to the
// kernel benchmarks: qps/p50/p99/p999/shed land in the "extra" field.
func (s LatencySummary) BenchLine(name string) string {
	nsPerOp := int64(0)
	if s.OK > 0 {
		nsPerOp = int64(s.WallSeconds * 1e9 / float64(s.OK))
	}
	return fmt.Sprintf("Benchmark%s 1 %d ns/op %.1f qps %d p50us %d p99us %d p999us %.4f shedrate",
		name, nsPerOp, s.QPS, s.P50Micros, s.P99Micros, s.P999Micros, s.ShedRate)
}
