#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source into
# .bench_build/ (Go's caches and temporary files too, so nothing is written
# outside the checkout) and run one workload once.
#
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/bench.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd "$here" && go build -buildvcs=false -o "$build/datalaws-bench" .)
if [ "${1:-}" = compare ]; then
  exec "$build/datalaws-bench" "$@"
fi
exec "$build/datalaws-bench" -out "$here/out" "$@"
