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
#      harness that drives every framework (core, the one trial sandbox and
#      the chaos fault matrix included), the fault injector itself (chaos)
#      and the most concurrent package in the tree, the daemon (serve: pool,
#      admission, breaker, snapshots, drain, and its chaos tests), the
#      packages whose kernels keep per-worker state across a region (nwgraph:
#      TC's padded per-worker counts and copy buffers; grb: the two-region
#      Tril/Triu select and the products), the other four frameworks (gap,
#      gkc, graphit, lagraph), the frontier library, so that every
#      framework's width-7 run (testutil.RunKernelAcrossWorkers) is raced,
#      the algorithm phases the frameworks share (kernel: Afforest's
#      union-find and Brandes' level sweeps at widths 1, 2 and 7), and the
#      graph package (its parallel builder, transpose, relabel and
#      Undirected merge; core's concurrent mounts and cache write beside the
#      view build are raced with core), on tiny graphs so the whole sweep
#      finishes in seconds (≈ 65 s warm with the -count=10 run below, ≈ 90 s
#      with a cold race build). Then go test -race -short -count=10 -run 'Snapshot|Reach'
#      <serve>: the snapshot single-flight (one build per burst, waiters
#      re-leading, breaker accounting) and the reach index (build, check,
#      reach and CC answers against every framework's traversal and
#      verify.Components, at scale 8 from 16 sources under -short; its weak
#      components against verify.Components on the five generators and on
#      random digraphs, over-bound ones included: every TestReach* and
#      TestSnapshot* test) under the race detector, ten times over. And
#      go test -race -short -count=10 -run 'Pool|Lease|Abandon|RunSandboxed'
#      <par core serve>: the one machine-lease path (par.Pool's concurrent
#      settles and drain, core.RunSandboxed's lease on every outcome, the
#      runner's and the daemon's abandonment and self-healing), ten times
#      over (≈ 25 s: the core abandonment tests wait out their 700 ms hangers).
#   7. go test -tags=check -short ./...  the armed tier: the whole tree
#      rebuilt with every invariant assertion armed (DESIGN.md §8 "Runtime
#      sanitizer"; one tag, one gate, internal/invariant): grb's operand,
#      mask and direction-equivalence checks, frontier's conversion checks,
#      graph's CSR seal at every trial boundary, and serve's lease-leak,
#      epoch and sampled reach- and CC-answer checks. A structurally corrupt
#      operand, a direction dispatch whose push and pull products disagree,
#      a kernel that writes shared graph memory or a leaked machine lease
#      panics at the boundary that received it, naming the invariant.
#      invariant's TestArmed fails here if the tag no longer arms the gate,
#      instead of every armed test skipping. The chaos fault matrix
#      (DESIGN.md §9) runs here armed, as it runs unarmed in tier 5: injected
#      panics, stalls, hangs and output corruption must surface as exactly
#      the right per-cell status (shed, retry, quarantine, drain clean for
#      the daemon), and only an armed build catches the CorruptGraph fault
#      at the seal check as Panicked.
#   8. graphgen + gapbench graph-store e2e tier: generate the five suite
#      graphs once as format-v2 .sg files, then run a gapbench smoke over
#      them via -graphfile, GAP, GraphIt and SuiteSparse (LAGraph) in both
#      rule sets, so the whole serialize -> mmap-load -> provenance ->
#      kernel-verify chain is exercised exactly the way a measurement run
#      uses it (see DESIGN.md §3 "The storage arena"), an Optimized GraphIt
#      cell runs through gapbench with its per-graph schedule table keyed by
#      the file's graph name, and LAGraph's Optimized TC converts the
#      relabeled view the runner builds on the first Optimized TC cell
#      (Input.Prepared on that view) over the mmapped input.
#  Tiers 9 and 11 use the tree's one gapd load driver, gapmark's
#  (benchmark/drive); tier 10 starts no daemon.
#   9. gapd serving smoke tier: gapmark's TestSmoke against an armed gapd
#      (GOFLAGS=-tags=check reaches the test's own `go build
#      gapbench/cmd/gapd`, into the test's temp directory — nothing is taken
#      from .bench_build/). gapmark's driver starts that daemon, offers both
#      traffic shapes at toy size (PR answered from snapshots, CC and
#      BFS/SSSP — gapmark sends no target — from the reach index, so the
#      armed sampled reach- and CC-answer checks run; closed loop and open
#      loop), and fails on any answer that is
#      not OK or that the oracle re-check rejects; then SIGTERM, and a
#      non-zero gapd exit — an armed assertion panics it, on a leaked lease
#      at drain among others — or a drain over its budget fails the run. The
#      snapshot cap (one PageRank build per graph and framework, every other
#      PR query a hit, no CC build at all: no per-query whole-graph
#      recompute) is
#      asserted in-process by TestServeEndToEndRealFramework in
#      internal/serve, which tier 5 runs.
#  10. go test -bench=. -benchtime=1x the benchmark bit-rot guard: every
#      benchmark (suite cells, ablations, and the ingest-pipeline
#      Build group — the cells EXPERIMENTS.md "Reproducing" lists
#      as `go test -run '^$' -bench ... -count=4 .` lines) runs exactly one
#      iteration at the test scale, so a signature drift or a panic on a
#      bench-only path fails the gate instead of surfacing months later in a
#      measurement run.
#  11. (cd benchmark && go vet ./... && go test -skip '^TestSmoke$' ./...)
#      the benchmark-module tier: gapmark is a Go module of its own below the
#      root module, so `./...` above never enters it. It imports this
#      module's packages (verify.Triangles, core.LoadCachedInput/
#      PrepareViews/Input, graph.Arena, lagraph.New/BFSWithPolicy,
#      serve.Request/Response/NewPool, par.NewMachine, ...), so a PR that
#      breaks a symbol the benchmark uses learns it here rather than when the
#      pipeline's benchmark run dies. TestSmoke — both workloads end to end,
#      failing on any failed operation or missing metric — already ran in
#      tier 9, armed; the driver's own tests (benchmark/drive: the
#      schedule, due-instant latency, the SLO staircase; benchmark/measure:
#      the percentile's minimum-sample rule) run here.
#
# Each tier prints its elapsed seconds when it ends, and the script prints
# the total last, so the gate's wall time is read from its own output.
# Any failure stops the script with a non-zero exit.

set -eu

cd "$(dirname "$0")/.."

# say starts a tier: it closes the previous one with its elapsed seconds.
# tier_start is also the clock the gapvet tiers hold to their budgets.
script_start=$(date +%s)
tier_start=$script_start
tier=0
end_tier() {
    now=$(date +%s)
    printf -- '-- tier %d: %ds\n' "$tier" $((now - tier_start))
}
say() {
    [ "$tier" -eq 0 ] || end_tier
    tier=$((tier + 1))
    tier_start=$(date +%s)
    printf '\n== %d. %s\n' "$tier" "$*"
}

say "go build ./..."
go build ./...

say "go vet ./..."
go vet ./...

say "gapvet ./... (must exit 0 in <60s)"
go run ./cmd/gapvet ./...
gapvet_elapsed=$(( $(date +%s) - tier_start ))
if [ "$gapvet_elapsed" -ge 60 ]; then
    echo "gapvet took ${gapvet_elapsed}s, budget is 60s" >&2
    exit 1
fi
echo "gapvet clean in ${gapvet_elapsed}s"

say "gapvet -perf ./... (compiler harvest included; must exit 0 in <120s)"
go run ./cmd/gapvet -perf ./...
perf_elapsed=$(( $(date +%s) - tier_start ))
if [ "$perf_elapsed" -ge 120 ]; then
    echo "gapvet -perf took ${perf_elapsed}s, budget is 120s" >&2
    exit 1
fi
echo "gapvet -perf clean in ${perf_elapsed}s"

say "go test ./..."
go test ./...

say "race smoke tier (go test -race -short; Snapshot, Reach and lease tests -count=10)"
go test -race -short ./internal/par/... ./internal/galois/... ./internal/core/... ./internal/chaos/... ./internal/serve/... ./internal/nwgraph/... ./internal/grb/... \
    ./internal/gap/... ./internal/gkc/... ./internal/graphit/... ./internal/lagraph/... ./internal/frontier/... ./internal/graph/... \
    ./internal/kernel/...
go test -race -short -count=10 -run 'Snapshot|Reach' ./internal/serve/
go test -race -short -count=10 -run 'Pool|Lease|Abandon|RunSandboxed' ./internal/par/ ./internal/core/ ./internal/serve/

say "armed tier (go test -tags=check -short ./...)"
go test -tags=check -short ./...

say "graph-store e2e tier (graphgen once, gapbench mmap smoke: GAP, GraphIt and SuiteSparse, both rule sets)"
GDIR="$(mktemp -d)"
trap 'rm -rf "$GDIR"' EXIT
go run ./cmd/graphgen -out "$GDIR" -scale 6 >/dev/null
SGFILES="$(ls "$GDIR"/*.sg | tr '\n' ',' | sed 's/,$//')"
go run ./cmd/gapbench -table IV -graphfile "$SGFILES" -kernels BFS,TC -frameworks GAP,GraphIt,SuiteSparse -mode both -trials 1 -q >/dev/null
echo "graph-store e2e ok (5 graphs saved, mmap-loaded, verified in both rule sets)"

say "gapd serving smoke tier (armed gapd under gapmark's driver: both traffic shapes + SIGTERM drain)"
(cd benchmark && GOFLAGS=-tags=check go test -count=1 -run '^TestSmoke$' ./cmd/gapmark/)

say "benchmark bit-rot guard (go test -run='^$' -bench=. -benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x .

say "benchmark-module tier (cd benchmark && go vet ./... && go test -skip '^TestSmoke$' ./...)"
(cd benchmark && go vet ./... && go test -skip '^TestSmoke$' ./...)

end_tier
printf '\n== all checks passed: %d tiers in %ds\n' "$tier" $((now - script_start))
