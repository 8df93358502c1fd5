package serve

// query.go executes one admitted query: validate, thread the deadline budget
// into a chained cancel token, lease a machine, run the kernel sandboxed
// (panic recovery, graphguard seal checks, grace-bounded abandonment), retry
// transient failures with backoff, and report the outcome in the Status
// taxonomy — to the client as a Code, to the breaker as a health event, and
// (optionally) to the suite journal as a core.Result. The whole-graph kernels
// (PR, CC) take this path once per snapshot build and are otherwise answered
// from the snapshot (snapshot.go).

import (
	"fmt"
	"runtime/debug"
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
	src    graph.NodeID
	target graph.NodeID
	vertex graph.NodeID
	topk   int
	budget time.Duration
	seed   uint64 // per-query jitter stream
	// slot is the snapshot slot a PR or CC query is answered from; nil for the
	// source-parameterised kernels, which run per query.
	slot *snapSlot
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

	p := &queryPlan{req: req, in: in, f: f, fwName: fwName, k: k,
		slot: s.snaps.slots[snapKey{graphName, fwName, k}]}
	n := int64(in.Graph.NumNodes())
	switch k {
	case core.BFS, core.SSSP:
		if req.Source < 0 || req.Source >= n {
			return fail(CodeInvalidArgument, "source %d out of range [0,%d)", req.Source, n)
		}
		p.src = graph.NodeID(req.Source)
		p.target = -1
		if req.Target != nil {
			if *req.Target < 0 || *req.Target >= n {
				return fail(CodeInvalidArgument, "target %d out of range [0,%d)", *req.Target, n)
			}
			p.target = graph.NodeID(*req.Target)
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
	case core.CC:
		if req.Vertex < 0 || req.Vertex >= n {
			return fail(CodeInvalidArgument, "vertex %d out of range [0,%d)", req.Vertex, n)
		}
		p.vertex = graph.NodeID(req.Vertex)
	}

	p.budget = s.cfg.defaultBudget()
	if req.BudgetMS > 0 {
		p.budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	if maxB := s.cfg.maxBudget(); p.budget > maxB {
		p.budget = maxB
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
	p.seed = splitmix64(s.cfg.Seed ^ s.queryID.Add(1))

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

// attemptOut is the raw result of one sandboxed attempt, in the suite's
// Status taxonomy. An OK attempt carries result (BFS, SSSP) or snap (a PR or
// CC snapshot build).
type attemptOut struct {
	status  core.Status
	seconds float64
	err     string
	stack   string
	result  *QueryResult
	snap    *snapshot
}

// execute answers the query under its deadline budget. probe marks the query
// as the breaker's half-open probe — its outcome decides whether the circuit
// closes.
func (s *Server) execute(p *queryPlan, connTok *par.CancelToken, probe bool) Response {
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
	var out attemptOut
	retries := 0
	policy := s.cfg.Retry.policy()
	for attempt := 0; ; attempt++ {
		var abandoned bool
		var err error
		out, abandoned, err = s.attempt(p, qTok, deadline)
		if err != nil {
			// Lease acquisition failed — nothing ran, nothing to retry. A
			// probe that never ran proved nothing: reset its circuit to open
			// (cooldown restarts) instead of leaving it wedged half-open.
			if probe {
				s.breakers.ResetProbe(p.fwName, string(p.k))
			}
			s.journalQuery(p, records, core.TimedOut, retries, err.Error())
			if err == ErrPoolDraining {
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
			Status: out.status, Seconds: out.seconds,
			Err: out.err, Stack: out.stack,
		})
		if abandoned {
			s.breakers.OnAbandon(p.fwName, string(p.k), probe)
		}
		if out.status == core.OK {
			s.breakers.OnSuccess(p.fwName, string(p.k), probe)
			break
		}
		if !abandoned {
			s.breakers.OnFailure(p.fwName, string(p.k), probe)
		}
		if attempt >= policy.MaxRetries || policy.RetryOn == nil || !policy.RetryOn(out.status) {
			break
		}
		// Backoff before the retry, bounded by the remaining budget; a fired
		// token (budget gone, client gone) ends the query instead.
		d := s.cfg.Retry.backoff(retries, p.seed)
		if time.Until(deadline) <= d || !sleepInterruptible(d, qTok) {
			break
		}
		retries++
		s.c.retries.Add(1)
	}

	s.journalQuery(p, records, out.status, retries, out.err)
	switch out.status {
	case core.OK:
		s.c.ok.Add(1)
		result := out.result
		if out.snap != nil {
			result = out.snap.answer(p)
		}
		return Response{Code: CodeOK, Retries: retries, Result: result,
			KernelMicros: int64(out.seconds * 1e6)}, out.snap
	case core.TimedOut:
		s.c.timeouts.Add(1)
		return Response{Code: CodeDeadlineExceeded, Error: out.err, Retries: retries}, nil
	case core.Panicked:
		s.c.panics.Add(1)
	}
	// Panicked, or VerifyFailed: a snapshot build the oracle rejected.
	return Response{Code: CodeInternal, Error: out.err, Retries: retries}, nil
}

// attempt runs one sandboxed kernel attempt on a leased machine. The lease is
// settled on every path — Release normally, Abandon when the kernel ignored
// its fired token past the grace period — via the deferred closure the gapvet
// lease-return rule checks for. The bool reports abandonment; a non-nil error
// means no lease was obtained (pool draining, budget gone while queued).
func (s *Server) attempt(p *queryPlan, tok *par.CancelToken, deadline time.Time) (attemptOut, bool, error) {
	lease, err := s.pool.Acquire(tok)
	if err != nil {
		return attemptOut{}, false, err
	}
	abandoned := false
	defer func() {
		if abandoned {
			lease.Abandon()
		} else {
			lease.Release()
		}
	}()

	m := lease.Machine()
	m.SetCancel(tok)
	opt := kernel.Options{
		Workers:        s.pool.Workers(),
		Mode:           kernel.Baseline,
		Delta:          p.in.Spec.Delta,
		Machine:        m,
		Cancel:         tok,
		UndirectedView: p.in.Undirected,
	}

	// Capture the graph views before the sandbox starts: an abandoned
	// sandbox may wake long after this query (and even the Input) is gone,
	// and must not re-read Input fields concurrently with a Close.
	g, und := p.in.Graph, p.in.Undirected
	done := make(chan attemptOut, 1) // buffered: an abandoned sandbox still exits
	go func() {
		out := attemptOut{status: core.OK}
		defer func() {
			if pv := recover(); pv != nil {
				out.status = core.Panicked
				out.err = fmt.Sprintf("%s %s on %s: panic: %v", p.fwName, p.k, p.in.Spec.Name, pv)
				out.stack = trimStack(debug.Stack())
				out.result, out.snap = nil, nil
			}
			done <- out
		}()
		if p.slot != nil {
			var err error
			if out.snap, out.seconds, err = buildSnapshot(p, g, opt); err != nil {
				out.status = core.VerifyFailed
				out.err = fmt.Sprintf("%s %s on %s: oracle rejected the result: %v", p.fwName, p.k, p.in.Spec.Name, err)
			}
		} else {
			start := time.Now()
			out.result = runKernel(p, g, opt)
			out.seconds = time.Since(start).Seconds()
		}
		// graphguard (armed under -tags=graphguard): the shared CSRs must
		// survive every query byte-identical — one corrupting kernel must not
		// poison answers for every later client. A mutation panics here,
		// inside the sandbox, as a Panicked attempt naming the array.
		g.MustCheckSeal()
		und.MustCheckSeal()
		if tok.Cancelled() {
			out.status = core.TimedOut
			out.err = fmt.Sprintf("%s %s on %s: deadline budget (%v) exceeded", p.fwName, p.k, p.in.Spec.Name, p.budget)
			out.result, out.snap = nil, nil
		}
	}()

	remaining := time.Until(deadline)
	if remaining < 0 {
		remaining = 0
	}
	expire := time.NewTimer(remaining)
	defer expire.Stop()
	select {
	case out := <-done:
		return out, false, nil
	case <-expire.C:
		tok.Cancel() // idempotent with the deadline; also covers clock skew on the chained token
		grace := time.NewTimer(s.cfg.grace())
		defer grace.Stop()
		select {
		case out := <-done:
			return out, false, nil
		case <-grace.C:
			// The kernel is ignoring the token: give up the machine. The
			// sandbox goroutine keeps the stuck machine (token installed, so
			// it still drains fast if the kernel ever polls) and the pool
			// self-heals with a replacement.
			abandoned = true
			return attemptOut{
				status: core.TimedOut,
				err: fmt.Sprintf("%s %s on %s: kernel ignored cancellation for %v past the %v budget; machine abandoned",
					p.fwName, p.k, p.in.Spec.Name, s.cfg.grace(), p.budget),
			}, true, nil
		}
	}
}

// trimStack keeps the frames that identify a panic and drops scheduler noise
// (same convention as the suite runner's trial records).
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	const maxLines = 24
	if len(lines) > maxLines {
		lines = append(lines[:maxLines], "... (stack trimmed)")
	}
	return strings.Join(lines, "\n")
}

// runKernel runs a source-parameterised kernel (BFS, SSSP — the whole-graph
// kernels are buildSnapshot's) and reduces its full output to the query's
// answer. The reduction runs inside the sandbox on purpose: reducing garbage
// output (a corrupted kernel result) may panic, and that is the kernel's
// fault to report, not the daemon's to crash on. g is passed in (not read off
// p.in) so the sandbox holds no Input-field reads.
func runKernel(p *queryPlan, g *graph.Graph, opt kernel.Options) *QueryResult {
	switch p.k {
	case core.BFS:
		parent := p.f.BFS(g, p.src, opt)
		res := &QueryResult{}
		for _, pv := range parent {
			if pv >= 0 {
				res.Reached++
			}
		}
		return res
	default: // core.SSSP — plan sends PR and CC to their snapshot slot
		dist := p.f.SSSP(g, p.src, opt)
		res := &QueryResult{}
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
		return res
	}
}

// journalQuery appends the query outcome to the suite journal (when
// configured) as a core.Result — one "cell" with one trial, CellID-keyed like
// any batch result, its attempts as TrialRecords. A query that ran nothing (a
// snapshot hit, a wait that outlasted its budget) has no trial and no
// records. Journal write failures are logged, never surfaced to the client:
// losing a ledger line must not fail a query that already ran.
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
		// Only a snapshot's result has been through an oracle: its build
		// checks it, and every hit serves that checked result.
		Verified:  status == core.OK && p.slot != nil,
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
