#!/usr/bin/env sh
# check.sh — the pre-PR gate (documented in CONTRIBUTING.md).
#
# Runs, in order:
#   1. go build ./...                 everything compiles
#   2. go vet ./...                   the standard toolchain checks
#   3. gapvet ./...                   this repo's own invariants (see DESIGN.md);
#      asserted to exit 0 in under 60 seconds — the analysis is part of the
#      inner loop, so its cost is a gated budget, not a trend
#   4. gapvet -perf ./...             the compiler-assisted perf-lint tier
#      (DESIGN.md §8 "Compiler-facts join"): harvests escape/inline/BCE
#      diagnostics from a -gcflags compiler run and joins them against the
#      timed-region dataflow. The harvest invokes the compiler, so this tier
#      carries its own 120-second budget, separate from the pure-AST tier —
#      a cold -gcflags build cache pays once, warm runs land in seconds. A
#      harvest that could not build a package exits 2 and fails the tier:
#      "clean" over facts the compiler never produced is not a pass
#   5. go test ./...                  the full tier-1 suite
#   6. go test -race -short <tier>    the race-detector smoke tier: the
#      parallel substrate (par), the most race-prone executor (galois), the
#      harness that drives every framework (core, the one trial sandbox
#      included) and the most concurrent package in the tree, the daemon
#      (serve: pool, admission, breaker, snapshots, drain), on tiny graphs
#      so the whole sweep finishes in seconds (≈ 30 s with a cold race
#      build).
#   7. go test -tags=grbcheck <tier>  the grbcheck sanitizer tier: rebuilds
#      the GraphBLAS substrate (and the shared frontier library, which keys
#      its conversion checks off the same tag) with runtime invariant
#      assertions enabled and re-runs grb, frontier, and their consumer
#      (lagraph) at -short scale, so a structurally corrupt vector/matrix/
#      frontier — or a direction dispatch whose push and pull products
#      disagree — panics at the operation boundary that received it (see
#      DESIGN.md "Runtime sanitizer"). lagraph's multi-root BC differential
#      against the serial Brandes (TestBetweennessMatchesSerialBrandes: path,
#      grid, unequal-depth components) runs here too, so every batched
#      product of both sweeps passes checkDenseMatrix on its recycled
#      operands at both boundaries.
#   8. go test -tags=graphguard <tier> the graphguard sanitizer tier: rebuilds
#      with CSR seal checks armed and re-runs graph plus the runner, so a
#      kernel that mutates shared graph memory panics at the trial boundary
#      naming the corrupted array (see DESIGN.md §9 "Graph seal").
#   9. go test -tags=chaos -short <tier> the fault-injection tier: rebuilds
#      the chaos injector armed and runs the end-to-end fault matrix
#      (DESIGN.md §9): injected panics, stalls, hangs, and output
#      corruption must surface as exactly the right per-cell status while
#      the suite, its journal, and its resume path keep working. A second
#      pass with both chaos and graphguard armed closes the loop: the
#      CorruptGraph fault must be caught by the seal check as Panicked.
#  10. go test -tags='chaos graphguard servecheck' <serve> the serving-layer
#      fault tier: the gapd daemon machinery (internal/serve) re-run with
#      the chaos injector, graph seal checks, and the lease-leak assertion
#      all armed — injected panics/stalls/hangs/corruption against a live
#      server must shed, retry, quarantine, and drain clean (DESIGN.md §11).
#      Then go test -race -count=10 -run Snapshot <serve>: the snapshot
#      single-flight (one build per burst, waiters re-leading, breaker
#      accounting) under the race detector, ten times over.
#  11. graphgen + gapbench graph-store e2e tier: generate the five suite
#      graphs once as format-v2 .sg files, then run a gapbench smoke over
#      them via -graphfile, so the whole serialize -> mmap-load -> provenance
#      -> kernel-verify chain is exercised exactly the way a measurement run
#      uses it (see DESIGN.md §3 "The storage arena").
#  12. gapbench -tune twice-through tier: runs the autotuner against a tiny
#      Kron build with a fresh schedule store, then runs it again on the same
#      store. The first pass must report tuning (writing the store), the
#      second must report reusing the stored schedule — the persistence
#      contract `-tune` exists for (see DESIGN.md "Schedule persistence").
#  Tiers 13 and 15 use the tree's one gapd load driver, gapmark's
#  (benchmark/drive); tier 14 starts no daemon.
#  13. gapd serving smoke tier: gapmark's TestSmoke with servecheck armed
#      (GOFLAGS=-tags=servecheck reaches the test's own `go build
#      gapbench/cmd/gapd`, into the test's temp directory — nothing is taken
#      from .bench_build/). gapmark's driver starts that daemon, offers both
#      traffic shapes at toy size (PR/CC answered from snapshots, leased
#      BFS/SSSP; closed loop and open loop), and fails on any answer that is
#      not OK or that the oracle re-check rejects; then SIGTERM, and a
#      non-zero gapd exit — the servecheck assertion panics it on a leaked
#      lease — or a drain over its budget fails the run. The snapshot cap
#      (one PageRank and one CC build per graph and framework, every other
#      such query a hit: no per-query whole-graph recompute) is asserted
#      in-process by TestServeEndToEndRealFramework in internal/serve, which
#      tier 5 runs.
#  14. go test -bench=. -benchtime=1x the benchmark bit-rot guard: every
#      benchmark (suite cells, ablations, and the ingest-pipeline
#      Build group — the cells EXPERIMENTS.md "Reproducing" lists
#      as `go test -run '^$' -bench ... -count=4 .` lines) runs exactly one
#      iteration at the test scale, so a signature drift or a panic on a
#      bench-only path fails the gate instead of surfacing months later in a
#      measurement run.
#  15. (cd benchmark && go vet ./... && go test -skip '^TestSmoke$' ./...)
#      the benchmark-module tier: gapmark is a Go module of its own below the
#      root module, so `./...` above never enters it. It imports this
#      module's packages (verify.Triangles, core.LoadCachedInput/
#      PrepareViews/Input, graph.Arena, lagraph.New/BFSWithPolicy,
#      serve.Request/Response/NewPool, par.NewMachine, ...), so a PR that
#      breaks a symbol the benchmark uses learns it here rather than when the
#      pipeline's benchmark run dies. TestSmoke — both workloads end to end,
#      failing on any failed operation or missing metric — already ran in
#      tier 13, armed; the driver's own tests (benchmark/drive: the
#      schedule, due-instant latency, the SLO staircase; benchmark/measure:
#      the percentile's minimum-sample rule) run here.
#
# Any failure stops the script with a non-zero exit.

set -eu

cd "$(dirname "$0")/.."

say() { printf '\n== %s\n' "$*"; }

say "go build ./..."
go build ./...

say "go vet ./..."
go vet ./...

say "gapvet ./... (must exit 0 in <60s)"
gapvet_start=$(date +%s)
go run ./cmd/gapvet ./...
gapvet_elapsed=$(( $(date +%s) - gapvet_start ))
if [ "$gapvet_elapsed" -ge 60 ]; then
    echo "gapvet took ${gapvet_elapsed}s, budget is 60s" >&2
    exit 1
fi
echo "gapvet clean in ${gapvet_elapsed}s"

say "gapvet -perf ./... (compiler harvest included; must exit 0 in <120s)"
perf_start=$(date +%s)
go run ./cmd/gapvet -perf ./...
perf_elapsed=$(( $(date +%s) - perf_start ))
if [ "$perf_elapsed" -ge 120 ]; then
    echo "gapvet -perf took ${perf_elapsed}s, budget is 120s" >&2
    exit 1
fi
echo "gapvet -perf clean in ${perf_elapsed}s"

say "go test ./..."
go test ./...

say "race smoke tier (go test -race -short)"
go test -race -short ./internal/par/... ./internal/galois/... ./internal/core/... ./internal/serve/...

say "grbcheck sanitizer tier (go test -tags=grbcheck -short)"
go test -tags=grbcheck -short ./internal/grb/ ./internal/frontier/ ./internal/lagraph/

say "graphguard sanitizer tier (go test -tags=graphguard -short)"
go test -tags=graphguard -short ./internal/graph/ ./internal/core/

say "chaos fault-injection tier (go test -tags=chaos -short)"
go test -tags=chaos -short ./internal/core/ ./internal/chaos/

say "chaos+graphguard tier (go test -tags='chaos graphguard' -short)"
go test -tags='chaos graphguard' -short ./internal/core/

say "serving-layer fault tier (go test -tags='chaos graphguard servecheck' -short)"
go test -tags='chaos graphguard servecheck' -short ./internal/serve/
go test -race -count=10 -run Snapshot ./internal/serve/

say "graph-store e2e tier (graphgen once, gapbench mmap smoke)"
GDIR="$(mktemp -d)"
TDIR="$(mktemp -d)"
trap 'rm -rf "$GDIR" "$TDIR"' EXIT
go run ./cmd/graphgen -out "$GDIR" -scale 6 >/dev/null
SGFILES="$(ls "$GDIR"/*.sg | tr '\n' ',' | sed 's/,$//')"
go run ./cmd/gapbench -table IV -graphfile "$SGFILES" -kernels BFS,TC -frameworks GAP -mode baseline -trials 1 -q >/dev/null
echo "graph-store e2e ok (5 graphs saved, mmap-loaded, verified)"

say "schedule-store persistence tier (gapbench -tune twice over one store)"
TUNE_ARGS="-tune -tunefile $TDIR/schedules.json -graphs Kron -scale 6 -kernels BFS -frameworks GraphIt -mode optimized -trials 1 -q"
go run ./cmd/gapbench $TUNE_ARGS 2>"$TDIR/first.log" >/dev/null
grep -q 'tune: tuned 1 schedules, reused 0' "$TDIR/first.log" || {
    echo "first -tune run did not tune a fresh schedule:" >&2
    cat "$TDIR/first.log" >&2
    exit 1
}
go run ./cmd/gapbench $TUNE_ARGS 2>"$TDIR/second.log" >/dev/null
grep -q 'tune: tuned 0 schedules, reused 1' "$TDIR/second.log" || {
    echo "second -tune run re-tuned instead of loading the stored schedule:" >&2
    cat "$TDIR/second.log" >&2
    exit 1
}
echo "schedule store persisted and reloaded ok"

say "gapd serving smoke tier (servecheck gapd under gapmark's driver: both traffic shapes + SIGTERM drain)"
(cd benchmark && GOFLAGS=-tags=servecheck go test -count=1 -run '^TestSmoke$' ./cmd/gapmark/)

say "benchmark bit-rot guard (go test -run='^$' -bench=. -benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x .

say "benchmark-module tier (cd benchmark && go vet ./... && go test -skip '^TestSmoke$' ./...)"
(cd benchmark && go vet ./... && go test -skip '^TestSmoke$' ./...)

say "all checks passed"
