// Package drive measures the served path: it spawns the real gapd binary,
// speaks its line-JSON protocol over a unix socket from closed-loop and
// open-loop clients, reads each layer's share off the wire, and re-checks
// sampled answers against the oracles.
package drive

// The driver keeps its own request and response structs, holding only the
// wire names it reads, so that a refactor of the daemon's Go types cannot
// change what the benchmark sends or break how it parses.

type request struct {
	Op     string `json:"op,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	Graph  string `json:"graph,omitempty"`
	Source int64  `json:"source,omitempty"`
	Vertex int64  `json:"vertex,omitempty"`
	K      int    `json:"k,omitempty"`
}

type response struct {
	Code         string      `json:"code"`
	Error        string      `json:"error,omitempty"`
	Micros       int64       `json:"micros"`
	KernelMicros int64       `json:"kernel_micros"`
	Result       *Answer     `json:"result,omitempty"`
	Graphs       []GraphInfo `json:"graphs,omitempty"`
	Stats        *Stats      `json:"stats,omitempty"`
}

// Answer is a query's result payload as sent on the wire.
type Answer struct {
	Reached   int64       `json:"reached"`
	TopK      []RankEntry `json:"topk"`
	Component int64       `json:"component"`
	Size      int64       `json:"size"`
}

// RankEntry is one PR top-k entry.
type RankEntry struct {
	V     int64   `json:"v"`
	Score float64 `json:"score"`
}

// GraphInfo is one served graph as the graphs op lists it.
type GraphInfo struct {
	Name  string `json:"name"`
	Nodes int64  `json:"nodes"`
}

// Stats are the daemon's lifetime counters the benchmark reports deltas of.
type Stats struct {
	Accepted    int64 `json:"accepted"`
	OK          int64 `json:"ok"`
	ShedRate    int64 `json:"shed_rate"`
	ShedQueue   int64 `json:"shed_queue"`
	BreakerShed int64 `json:"breaker_shed"`
	Timeouts    int64 `json:"timeouts"`
	Panics      int64 `json:"panics"`
	Retries     int64 `json:"retries"`
	Abandoned   int64 `json:"abandoned"`
}

const codeOK = "OK"

// topK is the PR result size every PR query asks for.
const topK = 10
