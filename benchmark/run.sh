#!/usr/bin/env bash
# Run every workload, each in a fresh process, and collect the detail
# records of all runs into benchmark/out/<sha>-<seed>.json for `compare`.
#
#   benchmark/run.sh [seed] [repeats]
#
# Each repeat uses the next seed, starting at the given one (default 1), and
# runs every workload untraced; the first repeat also runs each traced.
# Ten repeats give compare the quartiles it needs to call a change resolved.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
seed="${1:-1}"
repeats="${2:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_SHA="$sha"
workloads="$(sed -n 's/.*{"name": *"\([a-z_]*\)", *"why".*/\1/p' BENCHMARK.json)"
out="$here/out/$sha-$seed.json"
records=()
for ((r = 0; r < repeats; r++)); do
  for w in $workloads; do
    for trace in 0 1; do
      if [ "$trace" = 1 ] && [ "$r" != 0 ]; then continue; fi
      echo "run.sh: $w seed $((seed + r)) trace $trace" >&2
      records+=("$(bash "$here/bench.sh" --workload "$w" --seed "$((seed + r))" --seconds "$seconds" --trace "$trace" | tail -n 2 | head -n 1)")
    done
  done
done
{
  printf '{"git_sha": "%s", "runs": [\n' "$sha"
  for i in "${!records[@]}"; do
    if [ "$i" != 0 ]; then printf ',\n'; fi
    printf '%s' "${records[$i]}"
  done
  printf '\n]}\n'
} >"$out"
echo "run.sh: wrote $out" >&2
