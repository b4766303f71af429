package exec

import (
	"fmt"

	"datalaws/internal/expr"
	"datalaws/internal/table"
)

// PartitionScan reads the surviving partitions of a range-partitioned table
// in partition order, exposing parent-qualified columns. The planner prunes
// partitions whose range cannot satisfy the statement's WHERE predicate
// before the scan is built, so a selective query touches only the rows (and,
// on the approximate path, the models) of the partitions it can match.
//
// This is the row-at-a-time form; the plan lowering turns it into a
// vecMorselScan over the surviving partitions' chunks (one dense morsel
// space, see tableMorsels).
type PartitionScan struct {
	Parted *table.PartitionedTable
	// Parts are the surviving partitions in range order; Total counts the
	// partitions before pruning.
	Parts []*table.Table
	Total int
	// Where is the statement's WHERE predicate, carried down so the
	// surviving partitions' scans can zone-map-prune their chunks with it.
	Where expr.Expr
	Interruptible

	cols  []string
	scans []*TableScan
	cur   int
}

// NewPartitionScan prunes pt's partitions with the bounds where implies for
// the partition column and builds a scan over the survivors.
func NewPartitionScan(pt *table.PartitionedTable, where expr.Expr) *PartitionScan {
	keep := pt.PruneExpr(where, pt.Name)
	parts := make([]*table.Table, len(keep))
	for i, idx := range keep {
		parts[i] = pt.Part(idx)
	}
	return &PartitionScan{Parted: pt, Parts: parts, Total: pt.NumParts(), Where: where, cols: partitionCols(pt)}
}

func partitionCols(pt *table.PartitionedTable) []string {
	names := pt.Schema().Names()
	cols := make([]string, len(names))
	for i, n := range names {
		cols[i] = pt.Name + "." + n
	}
	return cols
}

// Columns implements Operator.
func (s *PartitionScan) Columns() []string { return s.cols }

// ExplainInfo implements Explainer.
func (s *PartitionScan) ExplainInfo() string {
	rows := 0
	for _, p := range s.Parts {
		rows += p.NumRows()
	}
	return fmt.Sprintf("PartitionScan %s (%d rows) partitions: %d/%d pruned",
		s.Parted.Name, rows, s.Total-len(s.Parts), s.Total)
}

// Open implements Operator. Every surviving partition is captured here, not
// when the scan reaches it, so the whole scan reads one snapshot — the same
// one the vectorized scan captures.
func (s *PartitionScan) Open() error {
	s.scans = make([]*TableScan, len(s.Parts))
	for i, p := range s.Parts {
		ts := NewTableScanAs(p, s.Parted.Name)
		ts.Where = s.Where
		ts.SetContext(s.Context())
		if err := ts.Open(); err != nil {
			return err
		}
		s.scans[i] = ts
	}
	s.cur = 0
	return nil
}

// Next implements Operator, draining each surviving partition in turn.
func (s *PartitionScan) Next() (Row, error) {
	for s.cur < len(s.scans) {
		row, err := s.scans[s.cur].Next()
		if err != nil || row != nil {
			return row, err
		}
		s.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (s *PartitionScan) Close() error {
	s.scans = nil
	return nil
}
