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
// The plan lowering turns it into a vecMorselScan over the surviving
// partitions' chunks (one dense morsel space, see tableMorsels).
type PartitionScan struct {
	Parted *table.PartitionedTable
	// Parts are the surviving partitions in range order; Total counts the
	// partitions before pruning.
	Parts []*table.Table
	Total int
	// Where is the statement's WHERE predicate, carried down so the
	// surviving partitions' scans can zone-map-prune their chunks with it.
	Where expr.Expr

	cols []string
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

// Columns implements Node.
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
