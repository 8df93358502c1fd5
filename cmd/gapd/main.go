// Command gapd is the fault-tolerant graph-query daemon: it mounts suite
// graphs once (mmap for format-v2 files, generate-and-cache otherwise) into
// shared immutable CSRs and serves concurrent kernel queries — BFS-from-
// source, SSSP, PR top-K, CC component-of — over line-delimited JSON on a
// TCP or unix socket.
//
// Robustness model (internal/serve, DESIGN.md §11): a bounded machine-lease
// pool with admission control (token bucket + queue-depth watermark →
// immediate RESOURCE_EXHAUSTED), per-query deadline budgets, retry with
// exponential backoff + jitter, a circuit breaker quarantining a
// (framework, kernel) pair that keeps losing machines, and graceful
// SIGTERM/SIGINT drain under a hard deadline. PR is answered from once-built,
// oracle-checked snapshots, and CC and BFS/SSSP without a target from a reach
// index each graph gets at start (its strongly and weakly connected
// components, proven before serving; the start log prints one line per graph
// with both counts).
//
// Usage examples:
//
//	gapd -listen unix:/tmp/gapd.sock -graphs Road,Kron -scale 10
//	gapd -listen tcp:127.0.0.1:9736 -graphdir ./graphs -frameworks GAP,Galois
//	gapd -graphfile g/kron-s13-seed42.sg -pool 4 -workers 8 -budget 2s
//	gapd -rate 500 -burst 50 -journal served.jsonl
//
// Query with anything that speaks line-JSON:
//
//	echo '{"kernel":"BFS","graph":"Kron","source":7}' | nc -U /tmp/gapd.sock
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/invariant"
	"gapbench/internal/serve"
)

func main() {
	var (
		listenAddr = flag.String("listen", "tcp:127.0.0.1:9736", `listen address: "tcp:host:port" or "unix:/path/to.sock"`)
		graphsFlag = flag.String("graphs", "", "comma-separated suite graph subset to serve (default: all five)")
		scale      = flag.Int("scale", 10, "base graph scale when generating (log2 vertices)")
		graphDir   = flag.String("graphdir", "", "cache directory for serialized graphs (generate once, mmap after)")
		graphFiles = flag.String("graphfile", "", "comma-separated serialized graph files to serve instead of generating (format-v2 files load zero-copy via mmap)")
		fwFlag     = flag.String("frameworks", "GAP", "comma-separated frameworks to serve (first is the default backend)")

		poolSize = flag.Int("pool", 2, "machine-lease pool size (concurrent queries executing)")
		workers  = flag.Int("workers", 4, "workers per pooled machine")

		budget    = flag.Duration("budget", time.Second, "default per-query deadline budget")
		maxBudget = flag.Duration("maxbudget", 10*time.Second, "cap on client-requested budgets")
		grace     = flag.Duration("grace", 250*time.Millisecond, "grace past a fired deadline before a kernel's machine is abandoned")

		rate     = flag.Float64("rate", 0, "admission token-bucket rate in queries/sec (0 = unlimited)")
		burst    = flag.Int("burst", 0, "admission token-bucket burst (0 = one second of -rate)")
		maxQueue = flag.Int("maxqueue", 0, "admitted queries allowed to wait for a lease beyond the pool size (0 = 2x pool, negative = none)")

		breakerN        = flag.Int("breaker-threshold", 3, "consecutive machine abandonments that quarantine a (framework, kernel) pair (0 disables)")
		breakerCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "quarantine time before a probe query is let through")

		retries = flag.Int("retries", 1, "retry attempts per query for transient (panicked) failures")

		journal = flag.String("journal", "", "append every served query outcome to this JSONL journal (suite core.Result format)")
		drain   = flag.Duration("drain", 10*time.Second, "hard deadline for the SIGTERM/SIGINT graceful drain")
		seed    = flag.Uint64("seed", 1, "retry-jitter seed")
		quiet   = flag.Bool("q", false, "suppress operational log lines")
	)
	flag.Parse()
	if err := run(*listenAddr, *graphsFlag, *scale, *graphDir, *graphFiles, *fwFlag,
		*poolSize, *workers, *budget, *maxBudget, *grace, *rate, *burst, *maxQueue,
		*breakerN, *breakerCooldown, *retries, *journal, *drain, *seed, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "gapd:", err)
		os.Exit(1)
	}
}

func run(listenAddr, graphsCSV string, scale int, graphDir, graphFiles, fwCSV string,
	poolSize, workers int, budget, maxBudget, grace time.Duration,
	rate float64, burst, maxQueue int, breakerN int, breakerCooldown time.Duration,
	retries int, journal string, drain time.Duration, seed uint64, quiet bool) error {

	logf := log.New(os.Stderr, "gapd: ", log.LstdFlags).Printf
	if quiet {
		logf = func(string, ...any) {}
	}

	frameworks, err := core.FrameworksFromCSV(fwCSV)
	if err != nil {
		return err
	}
	if len(frameworks) == 0 {
		return fmt.Errorf("-frameworks named no framework")
	}

	var specs []core.GraphSpec
	if graphFiles == "" {
		if specs, err = core.SuiteSpecs(scale, graphsCSV); err != nil {
			return err
		}
	}
	inputs, err := core.MountInputs(graphFiles, specs, graphDir)
	if err != nil {
		return err
	}
	defer func() {
		for _, in := range inputs {
			if err := in.Close(); err != nil {
				logf("closing %s: %v", in.Spec.Name, err)
			}
		}
	}()
	for _, in := range inputs {
		logf("mounted %s (%d nodes, %d edges, file %q) in %.3fs", in.Spec.Name, in.Graph.NumNodes(), in.Graph.NumEdges(), in.File, in.Mount.Seconds())
	}

	// Untimed load-phase conversion, same rule as the batch suite: no
	// framework pays its internal-representation build on a client's budget.
	core.PrepareViews(frameworks, inputs)

	cfg := serve.Config{
		PoolSize:      poolSize,
		Workers:       workers,
		DefaultBudget: budget,
		MaxBudget:     maxBudget,
		Grace:         grace,
		Admission:     serve.AdmissionConfig{Rate: rate, Burst: burst, MaxQueue: maxQueue},
		Breaker:       serve.BreakerConfig{Threshold: breakerN, Cooldown: breakerCooldown},
		Retry:         serve.RetryConfig{MaxRetries: retries},
		JournalPath:   journal,
		Seed:          seed,
		Logf:          logf,
	}
	srv, err := serve.NewServer(cfg, inputs, frameworks)
	if err != nil {
		return err
	}

	l, err := serve.Listen(listenAddr)
	if err != nil {
		return err
	}
	logf("serving %d graph(s), %d framework(s) on %s (pool=%d workers=%d budget=%v)",
		len(inputs), len(frameworks), listenAddr, cfg.PoolSize, cfg.Workers, budget)
	if invariant.Armed() {
		logf("invariant checks armed: a violated invariant, a leaked machine lease included, panics")
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	select {
	case sig := <-sigCh:
		logf("%v: draining (hard deadline %v)", sig, drain)
		derr := srv.Shutdown(drain)
		st := srv.StatsSnapshot()
		logf("drained: accepted=%d ok=%d shed=%d (rate=%d queue=%d breaker=%d drain=%d) panics=%d timeouts=%d retries=%d abandoned=%d breaker_opens=%d snapshot_builds=%d snapshot_hits=%d snapshot_failed=%d reach_hits=%d",
			st.Accepted, st.OK, st.ShedRate+st.ShedQueue+st.BreakerShed+st.DrainShed,
			st.ShedRate, st.ShedQueue, st.BreakerShed, st.DrainShed,
			st.Panics, st.Timeouts, st.Retries, st.Abandoned, st.BreakerOpens,
			st.SnapshotBuilds, st.SnapshotHits, st.SnapshotFailed, st.ReachHits)
		return derr
	case err := <-errCh:
		return err
	}
}
