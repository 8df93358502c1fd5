package serve

// proto.go defines the wire protocol of the gapd daemon: line-delimited JSON
// over a TCP or unix-socket connection. One request line in, one response
// line out, in request order — a connection is a serial query stream, and
// concurrency comes from concurrent connections (load drivers open one per
// simulated client). The shape is deliberately minimal — a serving layer for
// resident graphs, not an RPC framework.

import (
	"fmt"
	"strings"
)

// Ops accepted on a connection. An empty Op means OpQuery.
const (
	// OpQuery runs one kernel query (the default when Op is empty).
	OpQuery = "query"
	// OpGraphs lists the graphs the daemon is serving (name, vertex and
	// edge counts) — load drivers use it to size their source distributions.
	OpGraphs = "graphs"
	// OpStats reports the server's lifetime counters.
	OpStats = "stats"
	// OpPing is a liveness check; the response carries code OK and nothing
	// else.
	OpPing = "ping"
)

// Request is one client request line.
type Request struct {
	// ID is an opaque client token echoed on the response, so a client may
	// pipeline many queries over one connection.
	ID string `json:"id,omitempty"`
	// Op selects the operation; empty means "query".
	Op string `json:"op,omitempty"`

	// Kernel names the query type: "BFS" (from Source), "SSSP" (from
	// Source, optionally to Target), "PR" (top-K ranks), "CC" (weak
	// component of Vertex).
	Kernel string `json:"kernel,omitempty"`
	// Graph names the served graph to query.
	Graph string `json:"graph,omitempty"`
	// Framework names the backend; empty means the server's default (the
	// first registered framework).
	Framework string `json:"framework,omitempty"`

	// Source is the BFS/SSSP source vertex.
	Source int64 `json:"source,omitempty"`
	// Target, when set, asks SSSP for the distance to one vertex. It is
	// SSSP-only: a BFS request carrying one is INVALID_ARGUMENT.
	Target *int64 `json:"target,omitempty"`
	// Vertex is the CC component-of vertex.
	Vertex int64 `json:"vertex,omitempty"`
	// K is the PR top-K size (default 10, capped by the server).
	K int `json:"k,omitempty"`

	// BudgetMS is the client's requested deadline budget in milliseconds.
	// Zero means the server default; the server clamps to its maximum.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// Code classifies a response, modeled on the gRPC canonical codes so load
// drivers and dashboards can treat shed/deadline/fault responses uniformly.
type Code string

// The response codes.
const (
	// CodeOK: the query completed within budget.
	CodeOK Code = "OK"
	// CodeInvalidArgument: the request itself is malformed (unknown kernel,
	// out-of-range vertex, bad JSON field).
	CodeInvalidArgument Code = "INVALID_ARGUMENT"
	// CodeNotFound: the named graph or framework is not served here.
	CodeNotFound Code = "NOT_FOUND"
	// CodeResourceExhausted: admission control shed the query — token
	// bucket empty or the lease queue past its watermark. Immediate, before
	// any work; the client may retry against a less loaded window.
	CodeResourceExhausted Code = "RESOURCE_EXHAUSTED"
	// CodeDeadlineExceeded: the query's deadline budget ran out — waiting
	// for a lease or mid-kernel (the cooperative-cancellation drain).
	CodeDeadlineExceeded Code = "DEADLINE_EXCEEDED"
	// CodeUnavailable: the server is draining, or the (framework, kernel)
	// pair is quarantined by its circuit breaker. Fail-fast: no budget was
	// spent.
	CodeUnavailable Code = "UNAVAILABLE"
	// CodeInternal: the kernel panicked (and retries, if any, panicked
	// too). The error carries the panic value.
	CodeInternal Code = "INTERNAL"
)

// Response is one server response line.
type Response struct {
	ID   string `json:"id,omitempty"`
	Code Code   `json:"code"`
	// Error is the human-readable failure detail for non-OK codes.
	Error string `json:"error,omitempty"`

	// Kernel/Graph/Framework echo the query coordinates (query responses
	// only), so response logs are self-describing.
	Kernel    string `json:"kernel,omitempty"`
	Graph     string `json:"graph,omitempty"`
	Framework string `json:"framework,omitempty"`

	// Micros is the end-to-end service time in microseconds: admission to
	// response, queue wait and retries included. KernelMicros is the final
	// attempt's kernel execution alone, rounded up, so at least 1 when a
	// kernel ran. A query answered from a snapshot (PR) or a reach index
	// (CC, BFS/SSSP without a target) ran no kernel and carries no
	// KernelMicros; the one query that built a snapshot carries the build's
	// kernel time.
	Micros       int64 `json:"micros,omitempty"`
	KernelMicros int64 `json:"kernel_micros,omitempty"`
	// Retries counts extra attempts spent on transient faults.
	Retries int `json:"retries,omitempty"`

	// Result carries the kernel-specific payload for OK query responses.
	Result *QueryResult `json:"result,omitempty"`
	// Graphs answers OpGraphs.
	Graphs []GraphInfo `json:"graphs,omitempty"`
	// Stats answers OpStats.
	Stats *Stats `json:"stats,omitempty"`
}

// QueryResult is the kernel-specific result payload. Only the fields of the
// queried kernel are set.
type QueryResult struct {
	// Reached is the number of vertices reached from Source, Source included
	// (BFS, SSSP).
	Reached int64 `json:"reached,omitempty"`
	// Dist is the SSSP distance to Target (-1 when unreachable); nil when
	// no target was asked for.
	Dist *int64 `json:"dist,omitempty"`
	// TopK are the K highest-ranked vertices (PR), best first.
	TopK []RankEntry `json:"topk,omitempty"`
	// Component is the CC label of the queried vertex: the smallest vertex
	// id in its weak component (arc directions ignored), the same for every
	// framework. Size is the number of vertices sharing it.
	Component int64 `json:"component,omitempty"`
	Size      int64 `json:"size,omitempty"`
}

// RankEntry is one PR top-K entry.
type RankEntry struct {
	V     int64   `json:"v"`
	Score float64 `json:"score"`
}

// GraphInfo describes one served graph.
type GraphInfo struct {
	Name  string `json:"name"`
	Nodes int64  `json:"nodes"`
	Edges int64  `json:"edges"`
}

// Stats is the server's counter snapshot, answered on OpStats. All counters
// are lifetime totals; Inflight and OutstandingLeases are instantaneous.
type Stats struct {
	// Accepted counts queries past admission; Completed those answered
	// (any code after admission); OK the successful subset.
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	OK        int64 `json:"ok"`
	// ShedRate/ShedQueue count admission refusals by cause; BreakerShed
	// quarantine fail-fasts; DrainShed refusals while draining.
	ShedRate    int64 `json:"shed_rate"`
	ShedQueue   int64 `json:"shed_queue"`
	BreakerShed int64 `json:"breaker_shed"`
	DrainShed   int64 `json:"drain_shed"`
	// Panics/Timeouts/Retries/Abandoned count fault-path events; Abandoned
	// is machines lost to kernels that ignored cancellation.
	Panics    int64 `json:"panics"`
	Timeouts  int64 `json:"timeouts"`
	Retries   int64 `json:"retries"`
	Abandoned int64 `json:"abandoned"`
	// BreakerOpens counts circuit-breaker open transitions.
	BreakerOpens int64 `json:"breaker_opens"`
	// SnapshotBuilds counts PR snapshot builds started (at most graphs ×
	// frameworks on a healthy daemon — none is ever rebuilt);
	// SnapshotFailed those that ended without publishing (the next query
	// rebuilds); SnapshotHits queries answered from a published snapshot.
	SnapshotBuilds int64 `json:"snapshot_builds"`
	SnapshotHits   int64 `json:"snapshot_hits"`
	SnapshotFailed int64 `json:"snapshot_failed"`
	// ReachHits counts answers read off a graph's reach index: CC, and
	// BFS/SSSP without a target.
	ReachHits int64 `json:"reach_hits"`
	// Inflight is the number of admitted, unfinished queries right now;
	// OutstandingLeases the machine leases currently held.
	Inflight          int64 `json:"inflight"`
	OutstandingLeases int64 `json:"outstanding_leases"`
}

// validOps is the accepted Op set, for error messages.
var validOps = []string{OpQuery, OpGraphs, OpStats, OpPing}

// normalizeOp resolves the request's op, defaulting empty to query.
func normalizeOp(op string) (string, error) {
	switch op {
	case "", OpQuery:
		return OpQuery, nil
	case OpGraphs, OpStats, OpPing:
		return op, nil
	}
	return "", fmt.Errorf("unknown op %q (want one of %s)", op, strings.Join(validOps, ", "))
}
