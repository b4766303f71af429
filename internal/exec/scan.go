package exec

import (
	"datalaws/internal/expr"
	"datalaws/internal/table"
)

// TableScan reads a base table. Where is the statement's WHERE predicate,
// used only for zone-map pruning — sealed chunks whose per-column min/max
// provably cannot satisfy it are skipped without being decoded; exact
// filtering still happens in the Filter above. It lowers to one morsel scan
// per worker over one chunk capture taken when the plan opens, so
// concurrent appends do not tear the scan.
type TableScan struct {
	Table *table.Table
	// Where prunes sealed chunks by zone map; nil scans everything.
	Where expr.Expr

	cols  []string
	alias string
}

// NewTableScan builds a scan over t with qualified output columns.
func NewTableScan(t *table.Table) *TableScan {
	return &TableScan{Table: t, cols: qualifiedCols(t), alias: t.Name}
}

// NewTableScanAs is NewTableScan with the qualifier overridden: partition
// child tables scan under their parent's name, so queries reference
// "parent.column" regardless of which partitions survive pruning.
func NewTableScanAs(t *table.Table, alias string) *TableScan {
	return &TableScan{Table: t, cols: qualifiedColsAs(t, alias), alias: alias}
}

// qualifiedCols names a table's columns as "table.column", the form a scan
// exposes.
func qualifiedCols(t *table.Table) []string {
	return qualifiedColsAs(t, t.Name)
}

// qualifiedColsAs names a table's columns as "alias.column".
func qualifiedColsAs(t *table.Table, alias string) []string {
	names := t.Schema().Names()
	cols := make([]string, len(names))
	for i, n := range names {
		cols[i] = alias + "." + n
	}
	return cols
}

// Columns implements Node.
func (s *TableScan) Columns() []string { return s.cols }

// ValuesScan replays pre-materialized rows: an empty result of a known
// shape, and test inputs.
type ValuesScan struct {
	Cols []string
	Rows []Row
}

// Columns implements Node.
func (s *ValuesScan) Columns() []string { return s.Cols }
