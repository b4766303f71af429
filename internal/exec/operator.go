// Package exec implements the execution engine. The planner builds a parsed
// SELECT as a logical plan of nodes (Node) that are pure data — table and
// partition scans, filters, projections, hash aggregation, hash joins,
// sorting and limits — and Lower turns every plan into one morsel-driven
// pipeline of columnar batches that runs with a worker budget (see
// parallel.go). The pipeline is the only executor: a statement reads it
// through one row cursor (Operator). The model-based "zero-IO" scan of the
// paper plugs into the same plan as a node that splits into morsel sources
// (see internal/aqp), so approximate and exact plans compose with the same
// machinery. The row-at-a-time reference that the differential tests
// compare the pipeline against lives in this package's test files.
package exec

import (
	"errors"
	"fmt"
	"strings"

	"datalaws/internal/expr"
)

// ErrAmbiguous marks ambiguous-column resolution failures so they can be
// told apart from merely unknown names, which a plan reports under the
// context of the node that evaluates them.
var ErrAmbiguous = errors.New("ambiguous column")

// Row is one tuple of boxed values.
type Row []expr.Value

// Node is a logical plan node: pure data that Lower turns into a pipeline.
type Node interface {
	// Columns returns the output column names. Names from base tables are
	// qualified as "table.column"; derived columns are bare.
	Columns() []string
}

// Operator is a statement's cursor: a pull-based iterator over rows.
type Operator interface {
	Node
	// Open prepares the operator; it must be called before Next.
	Open() error
	// Next returns the next row, or (nil, nil) at end of input. The row is
	// valid until the next call to Next: the cursor may reuse its buffer.
	Next() (Row, error)
	// Close releases resources. It is safe to call after exhaustion.
	Close() error
}

// ResolveColumn finds the index of an identifier in a qualified column list.
// A qualified name ("t.x") must match exactly; a bare name matches a unique
// suffix. Ambiguous or missing names return an error.
func ResolveColumn(cols []string, name string) (int, error) {
	// Exact match first (covers both qualified idents and derived columns).
	for i, c := range cols {
		if c == name {
			return i, nil
		}
	}
	if !strings.Contains(name, ".") {
		found := -1
		for i, c := range cols {
			if idx := strings.LastIndexByte(c, '.'); idx >= 0 && c[idx+1:] == name {
				if found >= 0 {
					return 0, fmt.Errorf("exec: %w %q (matches %q and %q)", ErrAmbiguous, name, cols[found], c)
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
	}
	return 0, fmt.Errorf("exec: unknown column %q (have %v)", name, cols)
}

// Drain runs an operator to completion and returns all rows.
func Drain(op Operator) ([]Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []Row
	var slab RowSlab
	for {
		r, err := op.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, slab.Copy(r))
	}
}

// maxSlabValues caps the values one RowSlab allocation holds: 1,024
// values, 48 KiB.
const maxSlabValues = 1024

// RowSlab copies rows out of a cursor's reused buffer into shared slabs
// of values, so keeping n rows costs a handful of allocations rather than
// n. A slab holds one row at first and doubles up to maxSlabValues, so a
// one-row result allocates no more than it did with a row of its own.
// The zero value is ready to use.
type RowSlab struct {
	free []expr.Value
}

// Copy returns a copy of row that later copies do not overwrite.
func (s *RowSlab) Copy(row Row) Row {
	n := len(row)
	if cap(s.free)-len(s.free) < n {
		size := max(n, min(2*cap(s.free), maxSlabValues))
		s.free = make([]expr.Value, 0, size)
	}
	start := len(s.free)
	s.free = append(s.free, row...)
	return Row(s.free[start:len(s.free):len(s.free)])
}
