#!/usr/bin/env bash
# run.sh builds the benchmark and the daemon it drives from source, inside
# the checkout, and runs gapmark with the arguments given:
#
#   bash benchmark/run.sh --workload kron-global --seed 42 --seconds 50 --trace 0
#   bash benchmark/run.sh -calibrate 10
#   bash benchmark/run.sh -compare a.json b.json
#
# Everything it writes — build cache, binaries, temp files, result files —
# stays under the checkout (.bench_build/ and benchmark/out/).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOFLAGS=-buildvcs=false GOTOOLCHAIN=local TMPDIR=$build/tmp
export GAPMARK_COMMIT=${GAPMARK_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
# gapmark is a module of its own below the root module; gapd is the root
# module's, built through gapmark's requirement on it.
(cd benchmark && go build -o "$build/gapmark" ./cmd/gapmark && go build -o "$build/gapd" gapbench/cmd/gapd)
exec "$build/gapmark" -gapd "$build/gapd" "$@"
