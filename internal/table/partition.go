package table

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// Horizontal range partitioning. A partitioned table splits its rows across
// child tables by ranges of one numeric column, so that both row scans and
// captured models stay local to a regime: the paper's laws hold within a
// regime, and a selective query can skip whole partitions — rows and models —
// entirely. Each partition is a full *Table (its own columns, lock, version
// counter), so the append path, snapshot scans, model fitting, drift
// detection and background refit all work per partition unchanged.

// ErrPartitioned marks lookups that found a partitioned table where a plain
// table was required; callers that support partitioning check
// GetPartitioned first.
var ErrPartitioned = errors.New("table is partitioned")

// ErrNoPartition marks rows whose partition-column value falls outside every
// partition range.
var ErrNoPartition = errors.New("no partition admits value")

// RangePartition is one partition's declaration: rows route here when the
// partition column is below Upper (and at or above the previous partition's
// Upper). Max marks VALUES LESS THAN (MAXVALUE) — an unbounded final range.
type RangePartition struct {
	Name  string  `json:"name"`
	Upper float64 `json:"upper,omitempty"`
	Max   bool    `json:"max,omitempty"`
}

// Decl is a table's declaration, the one form of it that everything which
// rebuilds a table without its rows carries unchanged: the CREATE TABLE
// statement, its WAL record, the snapshot's partitions.json and the replica
// feed's model delta. PartCol is "" for a plain table. The JSON form is a
// partitions.json entry; it omits Cols because a snapshot keeps each
// partition's schema in its own .dltab file.
type Decl struct {
	Name    string           `json:"table"`
	Cols    []ColumnDef      `json:"-"`
	PartCol string           `json:"column"`
	Parts   []RangePartition `json:"parts"`
}

// PartitionedTable is a range-partitioned table: a schema shared by ordered
// child tables, each covering the half-open range
// [previous Upper, own Upper). Children are named "<table>#<partition>" —
// '#' cannot appear in a SQL identifier, so the names can never collide with
// user tables or be referenced directly from SQL.
type PartitionedTable struct {
	Name   string
	schema *Schema
	column string
	colIdx int
	ranges []RangePartition
	parts  []*Table
}

// NewPartitioned creates an empty partitioned table. The partition column
// must be numeric (BIGINT or DOUBLE); bounds must be strictly increasing,
// with MAXVALUE allowed only on the last partition.
func NewPartitioned(name string, schema *Schema, column string, ranges []RangePartition) (*PartitionedTable, error) {
	pt, err := validatePartitioned(name, schema, column, ranges)
	if err != nil {
		return nil, err
	}
	for i, r := range ranges {
		pt.parts[i] = New(PartitionTableName(name, r.Name), schema)
	}
	return pt, nil
}

// NewPartitionedFrom reassembles a partitioned table around existing child
// tables (the persistence load path). Children must match the ranges in
// count and order and share the parent schema's column names and types,
// and every row of a child must route to it: ranges that disagree with the
// rows would prune statements to the wrong partition.
func NewPartitionedFrom(name string, schema *Schema, column string, ranges []RangePartition, children []*Table) (*PartitionedTable, error) {
	pt, err := validatePartitioned(name, schema, column, ranges)
	if err != nil {
		return nil, err
	}
	if len(children) != len(ranges) {
		return nil, fmt.Errorf("table: partitioned %q has %d ranges but %d children", name, len(ranges), len(children))
	}
	for i, child := range children {
		if child == nil {
			return nil, fmt.Errorf("table: partitioned %q: nil child %d", name, i)
		}
		if err := sameSchema(schema, child.Schema()); err != nil {
			return nil, fmt.Errorf("table: partition %q of %q: %w", ranges[i].Name, name, err)
		}
		lo, hi := pt.bounds(i)
		if err := child.Chunks().checkRange(pt.colIdx, lo, hi); err != nil {
			return nil, fmt.Errorf("table: partition %q of %q: column %q: %w", ranges[i].Name, name, column, err)
		}
		pt.parts[i] = child
	}
	return pt, nil
}

func validatePartitioned(name string, schema *Schema, column string, ranges []RangePartition) (*PartitionedTable, error) {
	idx := schema.Index(column)
	if idx < 0 {
		return nil, fmt.Errorf("table: partition column %q is not in the schema of %q", column, name)
	}
	switch schema.Cols[idx].Type {
	case storage.TypeInt64, storage.TypeFloat64:
	default:
		return nil, fmt.Errorf("table: partition column %q of %q must be numeric", column, name)
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("table: partitioned %q needs at least one partition", name)
	}
	seen := map[string]bool{}
	for i, r := range ranges {
		if r.Name == "" {
			return nil, fmt.Errorf("table: partition %d of %q has an empty name", i, name)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("table: duplicate partition name %q in %q", r.Name, name)
		}
		seen[r.Name] = true
		if r.Max {
			if i != len(ranges)-1 {
				return nil, fmt.Errorf("table: MAXVALUE partition %q of %q must come last", r.Name, name)
			}
			continue
		}
		if math.IsNaN(r.Upper) {
			return nil, fmt.Errorf("table: partition %q of %q has a NaN bound", r.Name, name)
		}
		if i > 0 && !ranges[i-1].Max && r.Upper <= ranges[i-1].Upper {
			return nil, fmt.Errorf("table: partition bounds of %q must be strictly increasing (%q: %g after %g)",
				name, r.Name, r.Upper, ranges[i-1].Upper)
		}
	}
	return &PartitionedTable{
		Name:   name,
		schema: schema,
		column: column,
		colIdx: idx,
		ranges: append([]RangePartition(nil), ranges...),
		parts:  make([]*Table, len(ranges)),
	}, nil
}

func sameSchema(a, b *Schema) error {
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("schema has %d columns, want %d", len(b.Cols), len(a.Cols))
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return fmt.Errorf("column %d is %v, want %v", i, b.Cols[i], a.Cols[i])
		}
	}
	return nil
}

// PartitionTableName is the catalog name of one partition's child table.
func PartitionTableName(table, part string) string { return table + "#" + part }

// Schema returns the shared schema.
func (pt *PartitionedTable) Schema() *Schema { return pt.schema }

// Column returns the partition column name.
func (pt *PartitionedTable) Column() string { return pt.column }

// Decl returns the table's declaration.
func (pt *PartitionedTable) Decl() Decl {
	return Decl{Name: pt.Name, Cols: pt.schema.Cols, PartCol: pt.column, Parts: pt.Ranges()}
}

// Ranges returns the partition declarations in range order.
func (pt *PartitionedTable) Ranges() []RangePartition {
	return append([]RangePartition(nil), pt.ranges...)
}

// NumParts returns the partition count.
func (pt *PartitionedTable) NumParts() int { return len(pt.parts) }

// Part returns the i-th partition's child table.
func (pt *PartitionedTable) Part(i int) *Table { return pt.parts[i] }

// Partitions returns the child tables in range order.
func (pt *PartitionedTable) Partitions() []*Table {
	return append([]*Table(nil), pt.parts...)
}

// NumRows is the total row count across partitions.
func (pt *PartitionedTable) NumRows() int {
	n := 0
	for _, p := range pt.parts {
		n += p.NumRows()
	}
	return n
}

// bounds returns partition i's half-open range [lo, hi).
func (pt *PartitionedTable) bounds(i int) (lo, hi float64) {
	lo = math.Inf(-1)
	if i > 0 {
		lo = pt.ranges[i-1].Upper
	}
	hi = math.Inf(1)
	if !pt.ranges[i].Max {
		hi = pt.ranges[i].Upper
	}
	return lo, hi
}

// Route returns the partition index admitting a partition-column value.
func (pt *PartitionedTable) Route(v float64) (int, error) {
	if math.IsNaN(v) {
		return 0, fmt.Errorf("table %s: %w: NaN", pt.Name, ErrNoPartition)
	}
	i := sort.Search(len(pt.ranges), func(i int) bool {
		return pt.ranges[i].Max || v < pt.ranges[i].Upper
	})
	if i >= len(pt.ranges) {
		return 0, fmt.Errorf("table %s: %w: %g (last bound is %g; add a MAXVALUE partition)",
			pt.Name, ErrNoPartition, v, pt.ranges[len(pt.ranges)-1].Upper)
	}
	return i, nil
}

// RouteRows splits schema-aligned rows into per-partition batches, in
// partition order, preserving the arrival order within each batch. Every row
// is routed before anything is returned, so an unroutable row (NULL,
// non-numeric or out-of-range partition key, short row) rejects the whole
// batch and nothing is appended.
func (pt *PartitionedTable) RouteRows(rows [][]expr.Value) ([][][]expr.Value, error) {
	out := make([][][]expr.Value, len(pt.parts))
	for r, row := range rows {
		if pt.colIdx >= len(row) {
			return nil, fmt.Errorf("table %s: row %d has %d values, schema has %d", pt.Name, r, len(row), len(pt.schema.Cols))
		}
		v := row[pt.colIdx]
		if v.IsNull() {
			return nil, fmt.Errorf("table %s: row %d: partition column %q is NULL", pt.Name, r, pt.column)
		}
		f, err := v.AsFloat()
		if err != nil {
			return nil, fmt.Errorf("table %s: row %d: partition column %q: %w", pt.Name, r, pt.column, err)
		}
		i, err := pt.Route(f)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", r, err)
		}
		out[i] = append(out[i], row)
	}
	return out, nil
}

// AppendRows routes and appends a batch, one child-table lock acquisition
// per touched partition. It returns the number of rows appended. Routing
// errors reject the batch before anything lands; a child append error leaves
// earlier partitions' rows in place (ingestion is append-only).
func (pt *PartitionedTable) AppendRows(rows [][]expr.Value) (int, error) {
	batches, err := pt.RouteRows(rows)
	if err != nil {
		return 0, err
	}
	total := 0
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		n, err := pt.parts[i].AppendRows(b)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Bound is one side of an interval derived from a predicate: Set marks a
// constraint present, Strict marks it exclusive.
type Bound struct {
	F      float64
	Strict bool
	Set    bool
}

// tightenLo keeps the stronger of two lower bounds.
func tightenLo(a, b Bound) Bound {
	if !a.Set {
		return b
	}
	if !b.Set {
		return a
	}
	if b.F > a.F || (b.F == a.F && b.Strict) {
		return b
	}
	return a
}

// tightenHi keeps the stronger of two upper bounds.
func tightenHi(a, b Bound) Bound {
	if !a.Set {
		return b
	}
	if !b.Set {
		return a
	}
	if b.F < a.F || (b.F == a.F && b.Strict) {
		return b
	}
	return a
}

// PredBounds extracts the interval a predicate's top-level AND tree implies
// for one column (matched unqualified or qualified with tableName).
// Conjuncts it cannot analyze — ORs, function calls, parameters, columns of
// other tables — contribute nothing, so the result is always a sound
// over-approximation: every row satisfying pred has the column inside
// [lo, hi].
func PredBounds(pred expr.Expr, col, tableName string) (lo, hi Bound) {
	if pred == nil {
		return
	}
	b, ok := pred.(*expr.Binary)
	if !ok {
		return
	}
	matches := func(e expr.Expr) bool {
		id, ok := e.(*expr.Ident)
		return ok && (id.Name == col || id.Name == tableName+"."+col)
	}
	// litVal converts a comparison literal to the float domain pruning and
	// routing operate in. sharp reports whether strict comparisons stay
	// strict in that domain: row filters compare BIGINT values as exact
	// int64, while routing converts keys through float64 — beyond 2^53
	// distinct ints collapse onto one float, so a row with k < L can route
	// into the partition starting exactly at float64(L). Demoting the bound
	// to inclusive there keeps pruning a sound over-approximation.
	litVal := func(e expr.Expr) (f float64, sharp, ok bool) {
		l, ok2 := e.(*expr.Lit)
		if !ok2 || l.Val.IsNull() {
			return 0, false, false
		}
		f, err := l.Val.AsFloat()
		if err != nil {
			return 0, false, false
		}
		sharp = l.Val.K != expr.KindInt || (l.Val.I < 1<<53 && l.Val.I > -(1<<53))
		return f, sharp, true
	}
	switch b.Op {
	case expr.OpAnd:
		llo, lhi := PredBounds(b.L, col, tableName)
		rlo, rhi := PredBounds(b.R, col, tableName)
		return tightenLo(llo, rlo), tightenHi(lhi, rhi)
	case expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		op := b.Op
		var f float64
		var sharp, ok bool
		if matches(b.L) {
			f, sharp, ok = litVal(b.R)
		} else if matches(b.R) {
			if f, sharp, ok = litVal(b.L); ok {
				// literal OP col — flip to col OP' literal.
				switch op {
				case expr.OpLt:
					op = expr.OpGt
				case expr.OpLe:
					op = expr.OpGe
				case expr.OpGt:
					op = expr.OpLt
				case expr.OpGe:
					op = expr.OpLe
				}
			}
		}
		if !ok {
			return
		}
		switch op {
		case expr.OpEq:
			lo = Bound{F: f, Set: true}
			hi = Bound{F: f, Set: true}
		case expr.OpLt:
			hi = Bound{F: f, Strict: sharp, Set: true}
		case expr.OpLe:
			hi = Bound{F: f, Set: true}
		case expr.OpGt:
			lo = Bound{F: f, Strict: sharp, Set: true}
		case expr.OpGe:
			lo = Bound{F: f, Set: true}
		}
	}
	return
}

// PruneBounds returns the indexes of partitions whose range can intersect
// [lo, hi]; unset bounds leave that side unconstrained. Pruning is
// conservative: a partition is dropped only when its range provably cannot
// contain a qualifying value.
func (pt *PartitionedTable) PruneBounds(lo, hi Bound) []int {
	var keep []int
	for i := range pt.parts {
		plo, phi := pt.bounds(i)
		// Partition holds values in [plo, phi).
		if lo.Set && phi <= lo.F {
			continue // everything in the partition is below the lower bound
		}
		if hi.Set {
			if plo > hi.F || (hi.Strict && plo >= hi.F) {
				continue // everything in the partition is above the upper bound
			}
		}
		keep = append(keep, i)
	}
	return keep
}

// PruneExpr prunes with the bounds a WHERE predicate implies for the
// partition column. A nil predicate keeps every partition.
func (pt *PartitionedTable) PruneExpr(where expr.Expr, tableName string) []int {
	lo, hi := PredBounds(where, pt.column, tableName)
	return pt.PruneBounds(lo, hi)
}
