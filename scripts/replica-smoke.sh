#!/usr/bin/env bash
# End-to-end smoke of model-shipping replication: boot a primary datalawsd
# with data and a fitted model, boot a second datalawsd as -replica-of the
# primary, and assert the replica (which never held a raw row) answers
# APPROX queries over the wire, follows a row appended on the primary
# without a refit, rejects exact/ingest statements with the
# replica_readonly code, and reports a fresh feed in /metrics. Both
# processes must then drain cleanly on SIGTERM. Matches the CI
# "replica smoke" step.
#
# Usage: scripts/replica-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
trap 'kill "$primary_pid" "$replica_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/datalawsd" ./cmd/datalawsd

# Bootstrap SQL: the law intensity = (2+s)*nu + s over 4 sources, then fit.
{
  echo "CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)"
  awk 'BEGIN {
    for (s = 0; s < 4; s++)
      for (i = 1; i <= 8; i++) {
        nu = 0.25 * i
        printf "INSERT INTO m VALUES (%d, %g, %g)\n", s, nu, (2+s)*nu + s
      }
  }'
  echo "FIT MODEL law ON m AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source START (a = 1, b = 0)"
} >"$workdir/init.sql"

wait_portfile() {
  local file="$1" pid="$2" log="$3"
  for _ in $(seq 1 100); do
    [ -s "$file" ] && return 0
    kill -0 "$pid" 2>/dev/null || { cat "$log"; return 1; }
    sleep 0.1
  done
  echo "server never published its ports ($log)" >&2
  return 1
}

"$workdir/datalawsd" -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
  -init "$workdir/init.sql" -portfile "$workdir/primary.ports" \
  >"$workdir/primary.log" 2>&1 &
primary_pid=$!
wait_portfile "$workdir/primary.ports" "$primary_pid" "$workdir/primary.log"
primary_addr="$(sed -n 1p "$workdir/primary.ports")"

"$workdir/datalawsd" -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
  -replica-of "$primary_addr" -portfile "$workdir/replica.ports" \
  >"$workdir/replica.log" 2>&1 &
replica_pid=$!
wait_portfile "$workdir/replica.ports" "$replica_pid" "$workdir/replica.log"
replica_addr="$(sed -n 1p "$workdir/replica.ports")"
replica_metrics="$(sed -n 2p "$workdir/replica.ports")"
echo "replica-smoke: primary on $primary_addr, replica on $replica_addr"

# The checker retries internally while the first sync lands, then appends
# a row on the primary and waits for the replica's legal set to admit it.
go run scripts/replica_check.go -replica "$replica_addr" -primary "$primary_addr"

scrape="$(curl -fsS "http://$replica_metrics/metrics")"
echo "$scrape" | grep -E '^datalaws_replica_(connected|lag_seconds|deltas_applied_total) ' || {
  echo "replica-smoke: scrape missing replica series" >&2; exit 1; }
echo "$scrape" | awk '
  /^datalaws_replica_connected /      { up = $2 }
  /^datalaws_replica_lag_seconds /    { lag = $2 }
  END {
    if (up != 1)            { print "replica not connected to primary" > "/dev/stderr"; exit 1 }
    if (lag < 0 || lag > 30) { print "replica lag " lag " out of range" > "/dev/stderr"; exit 1 }
  }'

for role in replica primary; do
  pid_var="${role}_pid"
  kill -TERM "${!pid_var}"
  for _ in $(seq 1 100); do
    kill -0 "${!pid_var}" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "${!pid_var}" 2>/dev/null; then
    echo "replica-smoke: $role ignored SIGTERM" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$workdir/$role.log" || {
    echo "replica-smoke: $role drain did not complete cleanly:" >&2
    cat "$workdir/$role.log" >&2
    exit 1
  }
done
echo "replica-smoke: OK (model-only answers, readonly enforced, clean drains)"
