// Package table provides the relational layer over columnar storage: schemas,
// tables, a catalog, and CSV import/export. Tables are append-oriented (the
// telescope keeps observing; §2 expects measurement counts to grow linearly
// over time) and safe for concurrent readers with a single writer.
//
// Storage is two-tier: appends land in a mutable hot tail of plain columns;
// when the tail reaches the chunk row budget it is sealed into an immutable
// compressed chunk (per-column best-of encoding plus a zone map for scan
// pruning). There is one way to read rows: Table.Chunks returns a ChunkView
// — sealed chunk references plus an immutable tail snapshot, with the row
// count and version, captured under one lock — and every read (chunk-wise
// scans, zone-map pruning, the numeric extraction model fitting and
// evaluation use, row prefixes, CSV export) goes through that view. The
// paper's laws are fitted to joint samples, so a read is only meaningful
// when all its columns come from the same rows; because no other method of
// Table returns row data, two columns of one answer cannot come from two
// append states. Chunks decode on demand through a byte-budgeted LRU cache,
// so a scan's working set, not the table size, bounds memory.
package table

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// ErrUnknownTable marks lookups of tables that do not exist in a catalog;
// callers can test for it with errors.Is across every layer that wraps it.
var ErrUnknownTable = errors.New("unknown table")

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Type storage.ColType
}

// Schema is an ordered list of column definitions.
type Schema struct {
	Cols []ColumnDef
}

// NewSchema builds a schema, rejecting duplicate column names and unknown
// column types.
func NewSchema(cols ...ColumnDef) (*Schema, error) {
	seen := map[string]bool{}
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		if c.Type > storage.TypeBool {
			return nil, fmt.Errorf("table: column %q has unknown type %v", c.Name, c.Type)
		}
		seen[c.Name] = true
	}
	return &Schema{Cols: append([]ColumnDef(nil), cols...)}, nil
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Table is a relational table over typed columns: a list of sealed immutable
// compressed chunks plus a mutable hot tail absorbing appends.
type Table struct {
	Name   string
	schema *Schema

	mu         sync.RWMutex
	sealed     []*Chunk
	sealedRows int
	tail       []storage.Column
	tailRows   int
	chunkRows  int    // seal threshold, fixed at creation and persisted
	version    uint64 // bumped on every append; model staleness detection
}

// New creates an empty table with the given schema. The seal threshold is
// captured from DefaultChunkRows at creation, so sealing depends only on the
// row-arrival sequence — WAL replay re-seals a recovered table identically.
func New(name string, schema *Schema) *Table {
	t := &Table{Name: name, schema: schema, chunkRows: DefaultChunkRows}
	if t.chunkRows < 1 {
		t.chunkRows = 1
	}
	t.tail = newTailCols(schema)
	return t
}

func newTailCols(schema *Schema) []storage.Column {
	cols := make([]storage.Column, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = storage.NewColumn(c.Type)
	}
	return cols
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the current row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealedRows + t.tailRows
}

// NumChunks counts the table's current scan units: sealed chunks plus the
// hot tail when it is non-empty.
func (t *Table) NumChunks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.sealed)
	if t.tailRows > 0 {
		n++
	}
	return n
}

// Version returns a counter that increases with every append. The model
// store compares it against the version captured at fit time to detect the
// paper's "data changes" staleness condition.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// AppendRow appends one row of boxed values matching the schema order.
func (t *Table) AppendRow(vals []expr.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.appendRowLocked(vals); err != nil {
		return err
	}
	t.version++
	return nil
}

// AppendRows appends a batch of rows under one lock acquisition — the
// ingestion fast path. It returns the number of rows appended; on error,
// rows before the failing one remain appended (the table stays row-aligned,
// ingestion is append-only). The version counter is bumped once per batch
// that changed the table.
func (t *Table) AppendRows(rows [][]expr.Value) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for r, vals := range rows {
		if err := t.appendRowLocked(vals); err != nil {
			if r > 0 {
				t.version++
			}
			return r, err
		}
	}
	if len(rows) > 0 {
		t.version++
	}
	return len(rows), nil
}

// appendRowLocked appends one schema-aligned row to the hot tail, sealing it
// into a chunk when the row budget fills; callers hold t.mu and are
// responsible for the version bump. A failing value rolls back the partial
// row so columns stay aligned.
func (t *Table) appendRowLocked(vals []expr.Value) error {
	if len(vals) != len(t.schema.Cols) {
		return fmt.Errorf("table %s: row has %d values, schema has %d", t.Name, len(vals), len(t.schema.Cols))
	}
	for i, v := range vals {
		if err := t.tail[i].AppendValue(v); err != nil {
			for j := 0; j < i; j++ {
				rollbackLast(t.tail[j])
			}
			return fmt.Errorf("table %s, column %s: %w", t.Name, t.schema.Cols[i].Name, err)
		}
	}
	t.tailRows++
	if t.tailRows >= t.chunkRows {
		t.sealTailLocked()
	}
	return nil
}

// sealTailLocked encodes the tail into an immutable chunk and starts a fresh
// one; callers hold t.mu. Safe against concurrent ChunkViews: their tail
// snapshots alias the old column backing arrays, which sealing never
// mutates.
func (t *Table) sealTailLocked() {
	if t.tailRows == 0 {
		return
	}
	t.sealed = append(t.sealed, sealChunk(t.tail, t.tailRows))
	t.sealedRows += t.tailRows
	t.tailRows = 0
	t.tail = newTailCols(t.schema)
}

func rollbackLast(c storage.Column) {
	switch col := c.(type) {
	case *storage.Int64Column:
		col.Vals = col.Vals[:len(col.Vals)-1]
		nb := storage.NewBitmap(0)
		for i := 0; i < len(col.Vals); i++ {
			nb.Append(col.Nulls.Get(i))
		}
		col.Nulls = nb
	case *storage.Float64Column:
		col.Vals = col.Vals[:len(col.Vals)-1]
		nb := storage.NewBitmap(0)
		for i := 0; i < len(col.Vals); i++ {
			nb.Append(col.Nulls.Get(i))
		}
		col.Nulls = nb
	case *storage.StringColumn:
		col.Codes = col.Codes[:len(col.Codes)-1]
		nb := storage.NewBitmap(0)
		for i := 0; i < len(col.Codes); i++ {
			nb.Append(col.Nulls.Get(i))
		}
		col.Nulls = nb
	case *storage.BoolColumn:
		vb, nb := storage.NewBitmap(0), storage.NewBitmap(0)
		for i := 0; i < col.Vals.Len()-1; i++ {
			vb.Append(col.Vals.Get(i))
			nb.Append(col.Nulls.Get(i))
		}
		col.Vals, col.Nulls = vb, nb
	}
}

// RawSizeBytes estimates the decoded in-memory footprint of the stored data,
// used for the paper's Table 1 raw-vs-model size comparison. Sealed chunks
// report the footprint captured at seal time.
func (t *Table) RawSizeBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for _, ch := range t.sealed {
		total += ch.raw
	}
	for _, col := range t.tail {
		total += colRawBytes(col, t.tailRows)
	}
	return total
}

// EncodedSizeBytes sums the sealed chunks' frame bytes — the compressed
// footprint the chunked layout actually retains for cold data.
func (t *Table) EncodedSizeBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for _, ch := range t.sealed {
		total += ch.encoded
	}
	return total
}

// Catalog is a named collection of tables. Partitioned tables register
// twice: the parent under its own name in a partitioned map, and every
// partition's child table under its "<table>#<partition>" name among the
// plain tables (which is what lets model capture, drift detection and
// persistence treat partitions as ordinary tables).
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	parted map[string]*PartitionedTable
	epoch  uint64 // bumped on every create/add/drop; plan-cache invalidation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}, parted: map[string]*PartitionedTable{}}
}

// Epoch returns a counter that increases whenever the set of tables changes
// (create, add, drop). Cached plans record the epoch they were compiled
// under and are discarded on mismatch, so a plan can never survive a DROP
// TABLE / re-CREATE of its table.
func (c *Catalog) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// AdvanceEpoch raises the epoch strictly past floor (a persisted pre-restart
// value). A reopened catalog replays its load as a handful of Add calls, so
// without this its epoch would restart near zero and epoch-keyed plan caches
// could alias a pre-restart compilation; advancing past the persisted high
// water mark makes every post-restart epoch strictly greater than every
// pre-restart one.
func (c *Catalog) AdvanceEpoch(floor uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch <= floor {
		c.epoch = floor + 1
	}
}

// Create registers a new empty table; it fails on duplicate names.
func (c *Catalog) Create(name string, schema *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.freeNameLocked(name); err != nil {
		return nil, err
	}
	t := New(name, schema)
	c.tables[name] = t
	c.epoch++
	return t, nil
}

// freeNameLocked reports whether a name is taken by any table or partitioned
// table; callers hold c.mu.
func (c *Catalog) freeNameLocked(name string) error {
	if _, exists := c.tables[name]; exists {
		return fmt.Errorf("table: %q already exists", name)
	}
	if _, exists := c.parted[name]; exists {
		return fmt.Errorf("table: %q already exists", name)
	}
	return nil
}

// Add registers an existing table.
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.freeNameLocked(t.Name); err != nil {
		return err
	}
	c.tables[t.Name] = t
	c.epoch++
	return nil
}

// Declare registers the new empty table a declaration describes: a plain
// table, or a range-partitioned parent under d.Name plus one child table per
// partition under its "<table>#<partition>" name.
func (c *Catalog) Declare(d Decl) error {
	schema, err := NewSchema(d.Cols...)
	if err != nil {
		return err
	}
	if d.PartCol == "" {
		_, err := c.Create(d.Name, schema)
		return err
	}
	pt, err := NewPartitioned(d.Name, schema, d.PartCol, d.Parts)
	if err != nil {
		return err
	}
	return c.AddPartitioned(pt)
}

// DeclOf returns the declaration of a table; for a partition child it is
// the parent's declaration, the one that re-creates the child with its
// siblings.
func (c *Catalog) DeclOf(name string) (Decl, bool) {
	if pt, ok := c.GetPartitioned(name); ok {
		return pt.Decl(), true
	}
	t, ok := c.Get(name)
	if !ok {
		return Decl{}, false
	}
	if parent, _, child := strings.Cut(name, "#"); child {
		if pt, ok := c.GetPartitioned(parent); ok {
			return pt.Decl(), true
		}
	}
	return Decl{Name: name, Cols: t.Schema().Cols}, true
}

// AddPartitioned registers an existing partitioned table and its children.
func (c *Catalog) AddPartitioned(pt *PartitionedTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.freeNameLocked(pt.Name); err != nil {
		return err
	}
	for _, child := range pt.parts {
		if err := c.freeNameLocked(child.Name); err != nil {
			return err
		}
	}
	c.parted[pt.Name] = pt
	for _, child := range pt.parts {
		c.tables[child.Name] = child
	}
	c.epoch++
	return nil
}

// GetPartitioned looks up a partitioned table by its parent name.
func (c *Catalog) GetPartitioned(name string) (*PartitionedTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pt, ok := c.parted[name]
	return pt, ok
}

// Get looks up a plain table by name (partition children included).
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Lookup is Get with an ErrUnknownTable-wrapped error instead of a boolean,
// for callers that propagate the failure. Looking up a partitioned parent
// reports ErrPartitioned: callers that support partitioning check
// GetPartitioned first, and everything else fails loudly rather than
// treating the parent as an empty table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	t, ok := c.Get(name)
	if !ok {
		if _, parted := c.GetPartitioned(name); parted {
			return nil, fmt.Errorf("table: %w: %q", ErrPartitioned, name)
		}
		return nil, fmt.Errorf("table: %w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Drop removes a table. Dropping a partitioned parent removes its children
// with it; partition children cannot be dropped individually.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pt, ok := c.parted[name]; ok {
		delete(c.parted, name)
		for _, child := range pt.parts {
			delete(c.tables, child.Name)
		}
		c.epoch++
		return true
	}
	if _, ok := c.tables[name]; !ok {
		return false
	}
	// Refuse to drop a partition child out from under its parent.
	for _, pt := range c.parted {
		for _, child := range pt.parts {
			if child.Name == name {
				return false
			}
		}
	}
	delete(c.tables, name)
	c.epoch++
	return true
}

// Names lists the registered table names, partition children included.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// PartitionedNames lists the partitioned parent names.
func (c *Catalog) PartitionedNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.parted))
	for n := range c.parted {
		out = append(out, n)
	}
	return out
}
