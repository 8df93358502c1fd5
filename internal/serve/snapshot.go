package serve

// snapshot.go answers the two whole-graph query kernels — PR top-k and CC
// component-of — from a result computed once. PageRank scores and component
// labels are properties of the graph, not of the question (that is why the
// GAP protocol runs them source-free), and a served graph is immutable within
// an Epoch(), so re-running an O(iterations·m) kernel per query only repeats
// the same answer. The CC snapshot also answers reach queries: a target-less
// BFS or SSSP on a symmetric graph (every arc's reverse present; see
// symmetric in serve.go) reaches exactly its source's component, so its
// answer is that component's size, and plan sends it to the CC slot. Such a
// query is a CC query to everything but the client: it leads or waits on the
// CC build, and consults and charges the (framework, CC) breaker.
//
// Per (graph, framework, kernel) the first query leads a single-flight build
// through the ordinary execution path (lease, sandbox, retry, seal checks —
// run/runAttempt in query.go); the sandbox checks the full result against the
// SPEC.md oracle once, reduces it to what queries read, and the leader
// publishes it. Every later query is a hit: O(k) or O(1), no lease, no
// goroutine.
//
// Only success is published. A build that panicked, timed out, lost its
// machine, broke a graph seal or was rejected by the oracle answers its
// leader exactly as any failed query and leaves the slot empty, so the next
// query rebuilds. Waiters hold no lease and poll their own token: when the
// flight they waited on settles empty they re-contend to lead under their own
// budget, never inheriting the leader's deadline or its client's disconnect.
//
// There is no eviction, TTL or size budget: the key space is fixed at
// NewServer (graphs × frameworks × 2) and a snapshot owns its data — 1.6 KB
// for PR's top-100, 4n bytes of labels plus one table entry per component for
// CC — holding no reference into the mmap'd CSR.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// snapshotTopK is how many PR entries a snapshot keeps — plan's cap on a
// request's k, so every admissible k is a prefix.
const snapshotTopK = 100

// snapKey names one snapshot slot.
type snapKey struct {
	graph, framework string
	k                core.Kernel
}

// snapshot is one oracle-checked whole-graph result, reduced to what queries
// read. It is immutable once published.
type snapshot struct {
	// epoch is g.Epoch() of the graph the result was computed on; a snapshot
	// answers only for that graph (snapshotEpochCheck).
	epoch uint64
	// top is PR's snapshotTopK best entries, best first, ties by vertex id.
	top []RankEntry
	// labels and sizes are CC's per-vertex component label and the vertex
	// count of each label.
	labels []graph.NodeID
	sizes  map[graph.NodeID]int64
}

// snapSlot holds one key's published snapshot and, while one is being built,
// the flight that waiters block on.
type snapSlot struct {
	snap atomic.Pointer[snapshot]
	// mu guards flight. flight is non-nil while a leader is building and is
	// closed when it settles, whether or not it published.
	mu     sync.Mutex
	flight chan struct{}
}

// snapshotStore is the server's slot table. The map is filled by
// newSnapshotStore and never written again, so lookups take no lock.
type snapshotStore struct {
	slots map[snapKey]*snapSlot
	// builds counts flights led, failed those that settled without
	// publishing, hits the queries answered from a published snapshot.
	builds, failed, hits atomic.Int64
}

func newSnapshotStore(graphs []string, frameworks map[string]kernel.Framework) *snapshotStore {
	st := &snapshotStore{slots: make(map[snapKey]*snapSlot, 2*len(graphs)*len(frameworks))}
	for _, g := range graphs {
		for fw := range frameworks {
			for _, k := range []core.Kernel{core.PR, core.CC} {
				st.slots[snapKey{g, fw, k}] = &snapSlot{}
			}
		}
	}
	return st
}

// buildSnapshot is the timed part of a snapshot build: it runs the planned
// whole-graph kernel and returns the finish that checks the full result
// against the oracle (an error is the oracle's rejection) and reduces it.
// Both run inside the attempt sandbox: a kernel that returns garbage may make
// the oracle or the reduction panic, and that is the kernel's fault to report
// as Panicked.
func buildSnapshot(p *queryPlan, g *graph.Graph, opt kernel.Options) func() (*snapshot, error) {
	reject := func(err error) (*snapshot, error) {
		return nil, fmt.Errorf("oracle rejected the result: %w", err)
	}
	if p.k == core.PR {
		ranks := p.f.PR(g, opt)
		return func() (*snapshot, error) {
			if err := verify.CheckPR(g, ranks); err != nil {
				return reject(err)
			}
			return &snapshot{epoch: g.Epoch(), top: topK(ranks, snapshotTopK)}, nil
		}
	}
	labels := p.f.CC(g, opt)
	return func() (*snapshot, error) {
		if err := verify.CheckCC(g, labels); err != nil {
			return reject(err)
		}
		return &snapshot{epoch: g.Epoch(), labels: append([]graph.NodeID(nil), labels...),
			sizes: componentSizes(labels)}, nil
	}
}

// componentSizes counts the vertices carrying each label.
func componentSizes(labels []graph.NodeID) map[graph.NodeID]int64 {
	sizes := make(map[graph.NodeID]int64)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// topK selects the k highest-scoring vertices, best first and ties by vertex
// id, by insertion into a small sorted window: most vertices fail the
// threshold test in O(1), so no n-element sort is paid.
func topK(scores []float64, k int) []RankEntry {
	if k > len(scores) {
		k = len(scores)
	}
	top := make([]RankEntry, 0, k)
	for v, sc := range scores {
		if len(top) == k && sc <= top[k-1].Score {
			continue
		}
		i := len(top)
		if i < k {
			top = append(top, RankEntry{})
		} else {
			i = k - 1
		}
		for i > 0 && top[i-1].Score < sc {
			top[i] = top[i-1]
			i--
		}
		top[i] = RankEntry{V: int64(v), Score: sc}
	}
	return top
}

// answer reads the planned query's result off the snapshot: the first k
// entries for PR (capacity clipped, so a caller's append cannot reach the
// shared array), label and table lookup for CC, and the source's component
// size for a reach query.
func (sn *snapshot) answer(p *queryPlan) *QueryResult {
	snapshotEpochCheck(sn.epoch, p.in.Graph.Epoch())
	switch p.asked {
	case core.PR:
		return &QueryResult{TopK: sn.top[:p.topk:p.topk]}
	case core.CC:
		label := sn.labels[p.vertex]
		return &QueryResult{Component: int64(label), Size: sn.sizes[label]}
	}
	reached := sn.sizes[sn.labels[p.src]]
	reachAnswerCheck(p.id, p.in.Graph, p.src, reached)
	return &QueryResult{Reached: reached}
}

// serveSnapshot answers a PR, CC or reach query: from the slot's snapshot when
// one is published, otherwise by leading its build or by waiting for the
// leader.
func (s *Server) serveSnapshot(p *queryPlan, qTok *par.CancelToken, deadline time.Time, probe bool) Response {
	slot := p.slot
	for {
		if sn := slot.snap.Load(); sn != nil {
			s.snaps.hits.Add(1)
			// No kernel ran, so the hit says nothing about the pair's health
			// and must not reset its abandonment count — but a half-open probe
			// has to resolve its circuit, and an answer is a success.
			if probe {
				s.breakers.OnSuccess(p.fwName, string(p.k), true)
			}
			s.c.ok.Add(1)
			s.journalQuery(p, nil, core.OK, 0, "")
			return Response{Code: CodeOK, Result: sn.answer(p)}
		}
		slot.mu.Lock()
		flight := slot.flight
		if flight == nil && slot.snap.Load() == nil {
			slot.flight = make(chan struct{})
			slot.mu.Unlock()
			return s.leadBuild(p, qTok, deadline, probe)
		}
		slot.mu.Unlock()
		if flight == nil {
			continue // published between the two looks
		}
		if !awaitFlight(flight, qTok) {
			// This query's own budget (or client) ran out behind somebody
			// else's build. It ran nothing: a probe proved nothing.
			if probe {
				s.breakers.ResetProbe(p.fwName, string(p.k))
			}
			s.c.timeouts.Add(1)
			msg := fmt.Sprintf("budget (%v) exhausted waiting for the %s snapshot build", p.budget, p.k)
			s.journalQuery(p, nil, core.TimedOut, 0, msg)
			return Response{Code: CodeDeadlineExceeded, Error: msg}
		}
	}
}

// leadBuild runs the build as the leader of the flight serveSnapshot just
// opened, then settles the flight: a successful build is published, any other
// outcome leaves the slot empty, and either way the waiters are released.
func (s *Server) leadBuild(p *queryPlan, qTok *par.CancelToken, deadline time.Time, probe bool) Response {
	s.snaps.builds.Add(1)
	resp, built := s.run(p, qTok, deadline, probe)
	slot := p.slot
	slot.mu.Lock()
	if built != nil {
		slot.snap.Store(built)
	} else {
		s.snaps.failed.Add(1)
	}
	close(slot.flight)
	slot.flight = nil
	slot.mu.Unlock()
	return resp
}

// awaitFlight blocks until the flight settles (true) or tok fires (false).
// Tokens are poll-based, so the wait polls like Pool.Acquire does.
func awaitFlight(flight <-chan struct{}, tok *par.CancelToken) bool {
	timer := time.NewTimer(acquirePollInterval)
	defer timer.Stop()
	for {
		select {
		case <-flight:
			return true
		case <-timer.C:
			if tok.Cancelled() {
				return false
			}
			timer.Reset(acquirePollInterval)
		}
	}
}
