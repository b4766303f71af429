#!/usr/bin/env bash
# Prove the invariant suite still has teeth: temporarily re-introduce three
# known past bug classes — a mutation bypassing the WAL gate, a dropped WAL
# fsync error, and one answer read from two captures of a growing table —
# and assert datalaws-vet rejects the tree, naming the right analyzers. CI runs this after the clean sweep, so a weakened or
# accidentally disabled analyzer fails the build instead of rotting quietly.
#
# Usage: scripts/vet-canary.sh   (expects bin/datalaws-vet to exist;
#                                 scripts/vet.sh builds it)
set -euo pipefail
cd "$(dirname "$0")/.."

WALGATE_CANARY=canary_walgate_check.go
IOERRSINK_CANARY=internal/wal/canary_ioerrsink_check.go
SNAPSHOTREAD_CANARY=internal/compress/canary_snapshotread_check.go
cleanup() { rm -f "$WALGATE_CANARY" "$IOERRSINK_CANARY" "$SNAPSHOTREAD_CANARY"; }
trap cleanup EXIT

cat > "$WALGATE_CANARY" <<'EOF'
package datalaws

// canaryDropUnlogged re-introduces the pre-WAL bug class: a catalog
// mutation that recovery can never replay. scripts/vet-canary.sh asserts
// the walgate analyzer rejects it.
func (e *Engine) canaryDropUnlogged(name string) bool {
	return e.Catalog.Drop(name)
}
EOF

cat > "$IOERRSINK_CANARY" <<'EOF'
package wal

// canarySyncDropped re-introduces the silent-loss bug class the WAL's
// sticky poisoning exists to kill: an fsync whose error nobody sees.
// scripts/vet-canary.sh asserts the ioerrsink analyzer rejects it.
func canarySyncDropped(f File) {
	f.Sync()
}
EOF

cat > "$SNAPSHOTREAD_CANARY" <<'EOF'
package compress

import "datalaws/internal/table"

// canaryTwoViews re-introduces the torn read CompressOutput once had:
// predictions from one capture, observed values from a second, so under a
// concurrent appender the two disagree on the row count.
// scripts/vet-canary.sh asserts the snapshotread analyzer rejects it.
func canaryTwoViews(t *table.Table) (int, int) {
	preds := t.Chunks()
	observed := t.Chunks()
	return preds.Rows(), observed.Rows()
}
EOF

out=$(./bin/datalaws-vet ./... 2>&1) && {
  echo "FAIL: datalaws-vet accepted re-introduced known bugs"
  exit 1
}
echo "$out"
for analyzer in walgate ioerrsink snapshotread; do
  if ! grep -q "\[$analyzer\]" <<<"$out"; then
    echo "FAIL: $analyzer did not flag its canary"
    exit 1
  fi
done
echo "canary check passed: re-introduced bugs are caught"
