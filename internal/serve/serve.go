package serve

// Package serve is gapd's serving layer: a fault-tolerant daemon core that
// mmaps (or generates) the benchmark graphs once into shared immutable CSRs
// and serves concurrent kernel queries over line-delimited JSON. Robustness
// is the design driver, composed from the harness's existing fault-model
// parts (DESIGN.md §9, §11):
//
//   - admission control (admission.go) sheds overload immediately instead of
//     queuing it into deadline misses;
//   - every admitted query runs under a deadline budget, threaded as a
//     par.Chain of the connection token and a fresh deadline token into
//     kernel.Options and the leased machine;
//   - transient failures retry with exponential backoff + jitter (retry.go),
//     reusing the core.Status taxonomy;
//   - a circuit breaker (breaker.go) quarantines a (framework, kernel) pair
//     that keeps losing machines, until a probe succeeds;
//   - the machine-lease pool (pool.go) self-heals: an abandoned machine is
//     replaced immediately and reaped in the background;
//   - the whole-graph kernels (PR, CC) are computed and oracle-checked once
//     per (graph, framework) and answered from that snapshot (snapshot.go);
//   - SIGTERM drains gracefully under a hard deadline, and the drain proves
//     no machine lease leaked (servecheck).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// Config tunes the daemon. The zero value serves with the defaults described
// on the fields.
type Config struct {
	// PoolSize is the machine-lease pool size — the daemon's true concurrency
	// (queries beyond it wait briefly or are shed). Default 2.
	PoolSize int
	// Workers is the worker count per pooled machine. Default 4.
	Workers int

	// DefaultBudget is the per-query deadline when the request names none;
	// MaxBudget caps what a request may ask for. Defaults 1s and 10s.
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// Grace is how long past a fired deadline a kernel may ignore its token
	// before the machine is abandoned. Default 250ms.
	Grace time.Duration

	Admission AdmissionConfig
	Breaker   BreakerConfig
	Retry     RetryConfig

	// JournalPath, when set, appends every executed (admitted, non-shed)
	// query outcome to the suite's JSONL journal format (internal/core), so
	// served results and batch results share one ledger and one CellID key.
	JournalPath string
	// Seed drives retry jitter deterministically.
	Seed uint64
	// Logf receives operational messages (journal write failures, drain
	// progress). Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) poolSize() int {
	if c.PoolSize > 0 {
		return c.PoolSize
	}
	return 2
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

func (c Config) defaultBudget() time.Duration {
	if c.DefaultBudget > 0 {
		return c.DefaultBudget
	}
	return time.Second
}

func (c Config) maxBudget() time.Duration {
	if c.MaxBudget > 0 {
		return c.MaxBudget
	}
	return 10 * time.Second
}

func (c Config) grace() time.Duration {
	if c.Grace > 0 {
		return c.Grace
	}
	return 250 * time.Millisecond
}

// counters is the server's monotonic outcome ledger (Stats responses and the
// drain log read it; tests assert on it).
type counters struct {
	accepted, completed, ok                     atomic.Int64
	shedRate, shedQueue, breakerShed, drainShed atomic.Int64
	panics, timeouts, retries                   atomic.Int64
}

// Server is the daemon core. Build with NewServer, feed it listeners via
// Serve (one goroutine each), stop with Shutdown.
type Server struct {
	cfg      Config
	pool     *Pool
	adm      *admission
	breakers *breakerSet
	snaps    *snapshotStore

	graphs     map[string]*core.Input
	graphOrder []string
	frameworks map[string]kernel.Framework
	defaultFW  string

	journalMu sync.Mutex

	draining atomic.Bool
	queryID  atomic.Uint64
	c        counters

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*par.CancelToken
	connWG    sync.WaitGroup
}

// NewServer builds a Server over the given prepared inputs and frameworks.
// The first framework is the default for requests that name none. Inputs and
// frameworks must be non-empty; frameworks should already be Prepared against
// the inputs (core.PrepareViews) so no conversion cost lands on first query.
func NewServer(cfg Config, inputs []*core.Input, frameworks []kernel.Framework) (*Server, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("serve: no graphs to serve")
	}
	if len(frameworks) == 0 {
		return nil, fmt.Errorf("serve: no frameworks to serve")
	}
	s := &Server{
		cfg:        cfg,
		pool:       NewPool(cfg.poolSize(), cfg.workers()),
		breakers:   newBreakerSet(cfg.Breaker),
		graphs:     make(map[string]*core.Input, len(inputs)),
		frameworks: make(map[string]kernel.Framework, len(frameworks)),
		defaultFW:  frameworks[0].Name(),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]*par.CancelToken),
	}
	s.adm = newAdmission(cfg.Admission, cfg.poolSize())
	for _, in := range inputs {
		name := in.Spec.Name
		if _, dup := s.graphs[name]; dup {
			return nil, fmt.Errorf("serve: duplicate graph %q", name)
		}
		s.graphs[name] = in
		s.graphOrder = append(s.graphOrder, name)
	}
	for _, f := range frameworks {
		if _, dup := s.frameworks[f.Name()]; dup {
			return nil, fmt.Errorf("serve: duplicate framework %q", f.Name())
		}
		s.frameworks[f.Name()] = f
	}
	s.snaps = newSnapshotStore(s.graphOrder, s.frameworks)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Pool exposes the lease pool (tests and the drain log read its counters).
func (s *Server) Pool() *Pool { return s.pool }

// Listen opens the daemon's listener for an address of the form
// "unix:/path/to.sock" (a stale socket file — one nobody is accepting on —
// is removed first; a live one is an error, not stolen) or a TCP address
// ("tcp:host:port" or plain "host:port").
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if fi, err := os.Stat(path); err == nil {
			// The path exists. A crashed daemon leaves its socket file behind
			// (bind would fail EADDRINUSE even though nobody is accepting),
			// but unlinking unconditionally would let a second gapd silently
			// steal a live daemon's address — so prove staleness first: it
			// must be a socket, and connecting must be refused.
			if fi.Mode()&os.ModeSocket == 0 {
				return nil, fmt.Errorf("serve: %s exists and is not a socket; refusing to remove it", path)
			}
			if c, derr := net.DialTimeout("unix", path, 250*time.Millisecond); derr == nil {
				c.Close()
				return nil, fmt.Errorf("serve: a daemon is already listening on %s", path)
			} else if !errors.Is(derr, syscall.ECONNREFUSED) {
				return nil, fmt.Errorf("serve: probing existing socket %s: %v; refusing to remove it", path, derr)
			}
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("serve: removing stale socket %s: %w", path, err)
			}
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", strings.TrimPrefix(addr, "tcp:"))
}

// Serve accepts connections on l until Shutdown closes it. One goroutine per
// connection; responses to a connection are written in request order.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return fmt.Errorf("serve: server is draining")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil // Shutdown closed the listener
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn reads line-delimited JSON requests and writes one response line
// per request. The connection token fires when the client goes away (or at
// drain's hard phase), so in-flight queries for this client stop burning pool
// time on answers nobody will read.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	connTok := par.NewCancelToken()
	s.mu.Lock()
	s.conns[conn] = connTok
	s.mu.Unlock()
	defer func() {
		connTok.Cancel()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if err := conn.Close(); err != nil && !isClosedErr(err) {
			s.logf("serve: closing connection: %v", err)
		}
	}()

	w := bufio.NewWriter(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Code: CodeInvalidArgument, Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = s.handle(req, connTok)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			b, _ = json.Marshal(Response{ID: resp.ID, Code: CodeInternal, Error: "response marshal failed"})
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
	// Scanner errors (reset, token too long) just end the connection.
}

// isClosedErr reports the benign double-close of a drained connection.
func isClosedErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "use of closed network connection")
}

// handle dispatches one request.
func (s *Server) handle(req Request, connTok *par.CancelToken) Response {
	op, err := normalizeOp(req.Op)
	if err != nil {
		return Response{ID: req.ID, Code: CodeInvalidArgument, Error: err.Error()}
	}
	switch op {
	case OpPing:
		return Response{ID: req.ID, Code: CodeOK}
	case OpGraphs:
		return s.handleGraphs(req)
	case OpStats:
		st := s.StatsSnapshot()
		return Response{ID: req.ID, Code: CodeOK, Stats: &st}
	default: // OpQuery
		return s.query(req, connTok)
	}
}

func (s *Server) handleGraphs(req Request) Response {
	resp := Response{ID: req.ID, Code: CodeOK}
	for _, name := range s.graphOrder {
		g := s.graphs[name].Graph
		resp.Graphs = append(resp.Graphs, GraphInfo{
			Name:  name,
			Nodes: int64(g.NumNodes()),
			Edges: g.NumEdges(),
		})
	}
	return resp
}

// StatsSnapshot assembles the live counter snapshot.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		Accepted:          s.c.accepted.Load(),
		Completed:         s.c.completed.Load(),
		OK:                s.c.ok.Load(),
		ShedRate:          s.c.shedRate.Load(),
		ShedQueue:         s.c.shedQueue.Load(),
		BreakerShed:       s.c.breakerShed.Load(),
		DrainShed:         s.c.drainShed.Load(),
		Panics:            s.c.panics.Load(),
		Timeouts:          s.c.timeouts.Load(),
		Retries:           s.c.retries.Load(),
		Abandoned:         s.pool.Abandoned(),
		BreakerOpens:      s.breakers.Opens(),
		SnapshotBuilds:    s.snaps.builds.Load(),
		SnapshotHits:      s.snaps.hits.Load(),
		SnapshotFailed:    s.snaps.failed.Load(),
		Inflight:          s.adm.Inflight(),
		OutstandingLeases: s.pool.Outstanding(),
	}
}

// Shutdown drains the daemon under a hard deadline:
//
//  1. stop accepting (listeners close; new queries shed UNAVAILABLE);
//  2. soft phase (80% of the deadline): in-flight queries finish on their
//     own budgets;
//  3. hard phase: every connection token is cancelled, so stragglers drain
//     cooperatively at their next poll;
//  4. the machine pool drains — proving, under -tags=servecheck, that no
//     machine lease leaked — and connections are closed.
//
// The error reports an incomplete drain (leaked leases, stuck kernels);
// nil means every lease was settled and every reaper joined.
func (s *Server) Shutdown(hard time.Duration) error {
	s.draining.Store(true)
	deadline := time.Now().Add(hard)

	s.mu.Lock()
	for l := range s.listeners {
		if err := l.Close(); err != nil && !isClosedErr(err) {
			s.logf("serve: closing listener: %v", err)
		}
	}
	s.listeners = map[net.Listener]struct{}{}
	s.mu.Unlock()

	soft := time.Now().Add(hard * 4 / 5)
	for s.adm.Inflight() > 0 && time.Now().Before(soft) {
		time.Sleep(time.Millisecond)
	}
	if n := s.adm.Inflight(); n > 0 {
		s.logf("serve: drain hard phase: cancelling %d in-flight queries", n)
		s.mu.Lock()
		for _, tok := range s.conns {
			tok.Cancel()
		}
		s.mu.Unlock()
	}
	for s.adm.Inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	remaining := time.Until(deadline)
	if remaining < 10*time.Millisecond {
		remaining = 10 * time.Millisecond // give the pool a beat even on a blown deadline
	}
	err := s.pool.Drain(remaining)

	// Close connections last: shed responses for queries that arrived during
	// the drain have been written by now, and closing unblocks the readers.
	s.mu.Lock()
	for conn := range s.conns {
		if cerr := conn.Close(); cerr != nil && !isClosedErr(cerr) {
			s.logf("serve: closing connection: %v", cerr)
		}
	}
	s.mu.Unlock()
	s.connWG.Wait()

	if inflight := s.adm.Inflight(); err == nil && inflight > 0 {
		err = fmt.Errorf("serve: drain deadline passed with %d queries still in flight", inflight)
	}
	return err
}
