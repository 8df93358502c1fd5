package serve

// query.go executes one admitted query: validate, thread the deadline budget
// into a chained cancel token, lease a machine, run the kernel sandboxed
// (panic recovery, graphguard seal checks, grace-bounded abandonment), retry
// transient failures with backoff, and report the outcome in the Status
// taxonomy — to the client as a Code, to the breaker as a health event, and
// (optionally) to the suite journal as a core.Result. PR takes this path once
// per snapshot build and is otherwise answered from the snapshot
// (snapshot.go). CC never takes it: its answer is read off the graph's reach
// index (reach.go). A BFS or SSSP without a target takes it only on a graph
// whose index has no reach counts (over the bitset bound); elsewhere its
// whole answer, the reached count, is read off the index.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// queryPlan is a validated query request, ready to execute.
type queryPlan struct {
	req    Request
	in     *core.Input
	f      kernel.Framework
	fwName string
	k      core.Kernel
	id     uint64 // per-server query number
	src    graph.NodeID
	target graph.NodeID
	vertex graph.NodeID
	topk   int
	budget time.Duration
	seed   uint64 // per-query jitter stream
	// slot is the snapshot slot a PR query is answered from, and reach the
	// index a CC query, or a target-less BFS or SSSP, is answered from. A
	// query with neither runs its kernel: an SSSP with a target, or a reach
	// query on a graph whose index has no reach counts.
	slot  *snapSlot
	reach *reachIndex
}

// servedKernels are the query kernels gapd exposes: the point-query shapes
// of the suite (BFS-from-source, SSSP, PR-topk, CC-component-of). BC and TC
// are whole-graph batch kernels with no per-query parameter worth serving.
var servedKernels = []core.Kernel{core.BFS, core.SSSP, core.PR, core.CC}

// plan validates a query request into a queryPlan, or returns the response
// to send instead.
func (s *Server) plan(req Request) (*queryPlan, *Response) {
	fail := func(code Code, format string, args ...any) (*queryPlan, *Response) {
		return nil, &Response{ID: req.ID, Code: code, Error: fmt.Sprintf(format, args...)}
	}

	k := core.Kernel(strings.ToUpper(strings.TrimSpace(req.Kernel)))
	served := false
	for _, sk := range servedKernels {
		if k == sk {
			served = true
			break
		}
	}
	if !served {
		return fail(CodeInvalidArgument, "unknown kernel %q (served: BFS, SSSP, PR, CC)", req.Kernel)
	}

	graphName := req.Graph
	if graphName == "" && len(s.graphOrder) == 1 {
		graphName = s.graphOrder[0]
	}
	in, ok := s.graphs[graphName]
	if !ok {
		return fail(CodeNotFound, "graph %q not served (try op=graphs)", req.Graph)
	}

	fwName := req.Framework
	if fwName == "" {
		fwName = s.defaultFW
	}
	f, ok := s.frameworks[fwName]
	if !ok {
		return fail(CodeNotFound, "framework %q not served", req.Framework)
	}

	p := &queryPlan{req: req, in: in, f: f, fwName: fwName, k: k}
	n := int64(in.Graph.NumNodes())
	switch k {
	case core.BFS, core.SSSP:
		if req.Source < 0 || req.Source >= n {
			return fail(CodeInvalidArgument, "source %d out of range [0,%d)", req.Source, n)
		}
		p.src = graph.NodeID(req.Source)
		p.target = -1
		if req.Target != nil {
			if k == core.BFS {
				return fail(CodeInvalidArgument, "target is SSSP-only")
			}
			if *req.Target < 0 || *req.Target >= n {
				return fail(CodeInvalidArgument, "target %d out of range [0,%d)", *req.Target, n)
			}
			p.target = graph.NodeID(*req.Target)
		}
		// Stop when answered: without a target the answer is the reached
		// count, which the graph's reach index holds unless it is over the
		// bitset bound.
		if ix := s.reach[graphName]; p.target < 0 && ix.reached != nil {
			p.reach = ix
		}
	case core.PR:
		p.topk = req.K
		if p.topk <= 0 {
			p.topk = 10
		}
		if p.topk > snapshotTopK {
			p.topk = snapshotTopK
		}
		if int64(p.topk) > n {
			p.topk = int(n)
		}
		p.slot = s.snaps.slots[snapKey{graphName, fwName}]
	case core.CC:
		if req.Vertex < 0 || req.Vertex >= n {
			return fail(CodeInvalidArgument, "vertex %d out of range [0,%d)", req.Vertex, n)
		}
		p.vertex = graph.NodeID(req.Vertex)
		p.reach = s.reach[graphName]
	}

	// The cap is compared in milliseconds before multiplying: a huge
	// budget_ms would overflow the Duration and slip under the cap as an
	// already-spent budget.
	maxB := s.cfg.maxBudget()
	switch {
	case req.BudgetMS > maxB.Milliseconds():
		p.budget = maxB
	case req.BudgetMS > 0:
		p.budget = time.Duration(req.BudgetMS) * time.Millisecond
	default:
		p.budget = min(s.cfg.defaultBudget(), maxB)
	}
	return p, nil
}

// query is the full lifecycle of one query request.
func (s *Server) query(req Request, connTok *par.CancelToken) Response {
	start := time.Now()
	p, errResp := s.plan(req)
	if errResp != nil {
		errResp.Micros = time.Since(start).Microseconds()
		return *errResp
	}
	p.id = s.queryID.Add(1)
	p.seed = splitmix64(p.id)

	// Shed gates, cheapest first. Each refusal costs microseconds and no
	// pool time — the whole point of shedding over queuing.
	if s.draining.Load() {
		s.c.drainShed.Add(1)
		return Response{ID: req.ID, Code: CodeUnavailable, Error: "server draining",
			Kernel: string(p.k), Graph: p.in.Spec.Name, Framework: p.fwName,
			Micros: time.Since(start).Microseconds()}
	}
	allowed, probe := s.breakers.Allow(p.fwName, string(p.k))
	if !allowed {
		s.c.breakerShed.Add(1)
		return Response{ID: req.ID, Code: CodeUnavailable,
			Error:  fmt.Sprintf("%s %s quarantined (circuit open; retry after cooldown)", p.fwName, p.k),
			Kernel: string(p.k), Graph: p.in.Spec.Name, Framework: p.fwName,
			Micros: time.Since(start).Microseconds()}
	}
	if verdict := s.adm.Admit(); verdict != admitOK {
		// A shed probe must not leave the circuit wedged half-open: reset it
		// to open so the cooldown restarts and a later query re-probes.
		if probe {
			s.breakers.ResetProbe(p.fwName, string(p.k))
		}
		msg := "admission rate exceeded"
		if verdict == admitShedQueue {
			s.c.shedQueue.Add(1)
			msg = "queue depth watermark reached"
		} else {
			s.c.shedRate.Add(1)
		}
		return Response{ID: req.ID, Code: CodeResourceExhausted, Error: msg,
			Kernel: string(p.k), Graph: p.in.Spec.Name, Framework: p.fwName,
			Micros: time.Since(start).Microseconds()}
	}
	defer s.adm.Done()
	s.c.accepted.Add(1)
	defer s.c.completed.Add(1)

	resp := s.execute(p, connTok, probe)
	resp.ID = req.ID
	resp.Kernel = string(p.k)
	resp.Graph = p.in.Spec.Name
	resp.Framework = p.fwName
	resp.Micros = time.Since(start).Microseconds()
	return resp
}

// execute answers the query under its deadline budget. probe marks the query
// as the breaker's half-open probe — its outcome decides whether the circuit
// closes.
func (s *Server) execute(p *queryPlan, connTok *par.CancelToken, probe bool) Response {
	if p.reach != nil {
		return s.serveReach(p, probe)
	}
	// The budget token is the composition satellite in action: the machine
	// polls ONE token that fires on either the per-query deadline or the
	// client connection going away (par.Chain). It spans the whole query —
	// flight and lease waits, attempts, and backoff all spend the same budget.
	deadline := time.Now().Add(p.budget)
	qTok := par.Chain(connTok, par.NewDeadlineToken(p.budget))
	if p.slot != nil {
		return s.serveSnapshot(p, qTok, deadline, probe)
	}
	resp, _ := s.run(p, qTok, deadline, probe)
	return resp
}

// run is the retry loop: attempts on leased machines until one succeeds, the
// policy gives up or the budget is gone. The snapshot is non-nil exactly when
// a snapshot build succeeded.
func (s *Server) run(p *queryPlan, qTok *par.CancelToken, deadline time.Time, probe bool) (Response, *snapshot) {
	var records []core.TrialRecord
	var out core.Outcome
	var result *QueryResult
	var snap *snapshot
	retries := 0
	for attempt := 0; ; attempt++ {
		var err error
		if p.slot != nil {
			snap, out, err = runAttempt(s, p, qTok, deadline, buildSnapshot)
		} else {
			result, out, err = runAttempt(s, p, qTok, deadline, runKernel)
		}
		if err != nil {
			// Lease acquisition failed — nothing ran, nothing to retry. A
			// probe that never ran proved nothing: reset its circuit to open
			// (cooldown restarts) instead of leaving it wedged half-open.
			if probe {
				s.breakers.ResetProbe(p.fwName, string(p.k))
			}
			s.journalQuery(p, records, core.TimedOut, retries, err.Error())
			if err == par.ErrPoolDraining {
				s.c.drainShed.Add(1)
				return Response{Code: CodeUnavailable, Error: "server draining", Retries: retries}, nil
			}
			s.c.timeouts.Add(1)
			return Response{Code: CodeDeadlineExceeded,
				Error:   fmt.Sprintf("budget (%v) exhausted waiting for a machine lease", p.budget),
				Retries: retries}, nil
		}
		records = append(records, core.TrialRecord{
			Trial: 0, Attempt: attempt,
			Status: out.Status, Seconds: out.Seconds,
			Err: out.Err, Stack: out.Stack,
		})
		if out.Abandoned {
			s.breakers.OnAbandon(p.fwName, string(p.k), probe)
		}
		if out.Status == core.OK {
			s.breakers.OnSuccess(p.fwName, string(p.k), probe)
			break
		}
		if !out.Abandoned {
			s.breakers.OnFailure(p.fwName, string(p.k), probe)
		}
		if !s.cfg.Retry.Retries(out.Status, attempt) {
			break
		}
		// Backoff before the retry, bounded by the remaining budget; a fired
		// token (budget gone, client gone) ends the query instead.
		d := backoff(retries, p.seed)
		if time.Until(deadline) <= d || !sleepInterruptible(d, qTok) {
			break
		}
		retries++
		s.c.retries.Add(1)
	}

	s.journalQuery(p, records, out.Status, retries, out.Err)
	switch out.Status {
	case core.OK:
		s.c.ok.Add(1)
		if snap != nil {
			result = snap.answer(p)
		}
		return Response{Code: CodeOK, Retries: retries, Result: result,
			KernelMicros: kernelMicros(out.Seconds)}, snap
	case core.TimedOut:
		s.c.timeouts.Add(1)
		return Response{Code: CodeDeadlineExceeded, Error: out.Err, Retries: retries}, nil
	case core.Panicked:
		s.c.panics.Add(1)
	}
	// Panicked, or VerifyFailed: a snapshot build the oracle rejected.
	return Response{Code: CodeInternal, Error: out.Err, Retries: retries}, nil
}

// kernelMicros is an attempt's kernel time in whole microseconds, rounded up
// from the nanosecond: an attempt that ran reports at least 1, so a missing
// kernel_micros always means no kernel ran.
func kernelMicros(seconds float64) int64 {
	ns := int64(math.Round(seconds * 1e9))
	return max(1, (ns+999)/1000)
}

// runAttempt runs one kernel attempt in the suite's sandbox
// (core.RunSandboxed), on a machine it leases from the server's pool and
// settles on every path: kernel is the timed part and returns the finish that
// produces the attempt's value. A non-nil error means no lease was obtained
// (pool draining, budget gone while queued).
func runAttempt[T any](s *Server, p *queryPlan, tok *par.CancelToken, deadline time.Time,
	kernelRun func(*queryPlan, *graph.Graph, kernel.Options) func() (T, error)) (T, core.Outcome, error) {
	opt := kernel.Options{
		Mode:           kernel.Baseline,
		Delta:          p.in.Spec.Delta,
		Cancel:         tok,
		UndirectedView: p.in.Undirected,
		Prepared:       p.in.Prepared(p.f, false),
	}
	// The graph views are captured before the sandbox starts: an abandoned
	// sandbox may wake long after this query (and even the Input) is gone,
	// and must not re-read Input fields concurrently with a Close. The seal
	// checks (armed under -tags=check) keep one corrupting kernel from
	// poisoning answers for every later client.
	g := p.in.Graph
	return core.RunSandboxed(s.pool, core.Sandbox{
		Framework: p.fwName,
		Kernel:    p.k,
		Graph:     p.in.Spec.Name,
		Token:     tok,
		Deadline:  deadline,
		Limit:     p.budget,
		Grace:     s.cfg.grace(),
		Seals:     [3]*graph.Graph{g, p.in.Undirected},
	}, func(m *par.Machine) func() (T, error) {
		opt.Machine = m
		return kernelRun(p, g, opt)
	})
}

// runKernel is the timed part of a BFS or SSSP query that plan did not route
// to a reach index (PR's is buildSnapshot): it runs the
// kernel and reduces its full output to the query's answer, which the returned
// finish only hands over. The reduction runs inside the sandbox on purpose:
// reducing garbage output (a corrupted kernel result) may panic, and that is
// the kernel's fault to report, not the daemon's to crash on. g is passed in
// (not read off p.in) so the sandbox holds no Input-field reads.
func runKernel(p *queryPlan, g *graph.Graph, opt kernel.Options) func() (*QueryResult, error) {
	res := &QueryResult{}
	if p.k == core.BFS {
		for _, pv := range p.f.BFS(g, p.src, opt) {
			if pv >= 0 {
				res.Reached++
			}
		}
	} else { // core.SSSP — plan sends PR to a snapshot slot, CC to the index
		dist := p.f.SSSP(g, p.src, opt)
		for _, d := range dist {
			if d != kernel.Inf {
				res.Reached++
			}
		}
		if p.target >= 0 && p.target < graph.NodeID(len(dist)) {
			d := int64(-1) // the documented "unreachable" sentinel
			if dist[p.target] != kernel.Inf {
				d = int64(dist[p.target])
			}
			res.Dist = &d
		}
	}
	return func() (*QueryResult, error) { return res, nil }
}

// journalQuery appends the query outcome to the suite journal (when
// configured) as a core.Result — one "cell" with one trial, CellID-keyed like
// any batch result, its attempts as TrialRecords. A query that ran nothing (a
// snapshot hit, a reach answer, a wait that outlasted its budget) has no trial
// and no records. Journal write failures are logged, never surfaced to the
// client: losing a ledger line must not fail a query that already ran.
func (s *Server) journalQuery(p *queryPlan, records []core.TrialRecord, status core.Status, retries int, errMsg string) {
	if s.cfg.JournalPath == "" {
		return
	}
	res := core.Result{
		Framework: p.fwName,
		Kernel:    p.k,
		Graph:     p.in.Spec.Name,
		Mode:      kernel.Baseline,
		Status:    status,
		Seconds:   -1,
		Retries:   retries,
		// Only snapshot and reach-index answers are checked: a snapshot's
		// build checks its result against the oracle and every hit serves
		// it, and a reach index is proven before it is served.
		Verified:  status == core.OK && (p.slot != nil || p.reach != nil),
		GraphFile: p.in.File,
	}
	if p.in.Graph != nil {
		res.GraphEpoch = p.in.Graph.Epoch()
	}
	if status == core.OK && len(records) > 0 {
		last := records[len(records)-1]
		res.Seconds = last.Seconds
		res.AvgSeconds = last.Seconds
	} else {
		res.Err = errMsg
	}
	if len(records) > 0 {
		res.Trials = 1
		res.TrialRecords = records
	}
	s.journalMu.Lock()
	err := core.AppendJournal(s.cfg.JournalPath, res)
	s.journalMu.Unlock()
	if err != nil {
		s.logf("serve: journal: %v", err)
	}
}
