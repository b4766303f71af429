// Fixture for snapshotread: the second separately-locked read of one table
// in one function is flagged; a single capture, reads through the captured
// view, metadata alone and distinct tables are not.
package reads

import "datalaws/internal/table"

// Two captures can straddle an append.
func tornDoubleCapture(t *table.Table) {
	a := t.Chunks()
	b := t.Chunks() // want `Chunks\(\) is the second separately-locked read of table "t" in tornDoubleCapture \(2 data/0 metadata reads\); read through one ChunkView`
	_, _ = a, b
}

// A capture sized against a separate NumRows tears too.
func tornRows(t *table.Table) {
	n := t.NumRows()
	v := t.Chunks() // want `Chunks\(\) is the second separately-locked read of table "t" in tornRows \(1 data/1 metadata reads\)`
	_, _ = n, v
}

// Stamping data with a version read under another lock acquisition is the
// cache bug: the entry claims a version its data was not read at.
func tornVersionStamp(s struct{ Tab *table.Table }) {
	ver := s.Tab.Version()
	_, cols, _ := s.Tab.Chunks().Numeric("", []string{"x"}) // want `Chunks\(\) is the second separately-locked read of table "s\.Tab" in tornVersionStamp \(1 data/1 metadata reads\)`
	_, _ = ver, cols
}

// Chunk-shape metadata read beside a capture pairs as well.
func tornNumChunks(t *table.Table) {
	v := t.Chunks()
	k := t.NumChunks() // want `NumChunks\(\) is the second separately-locked read of table "t" in tornNumChunks \(1 data/1 metadata reads\)`
	_, _ = v, k
}

// One capture is the sanctioned read; rows, row count, version and chunk
// count drawn from the returned view share one append state.
func oneView(t *table.Table) {
	v := t.Chunks()
	_, _ = v.Columns(0, nil)
	_, _ = v.Columns(0, []int{1})
	_, _, _ = v.Numeric("g", []string{"x", "y"})
	_, _, _ = v.Rows(), v.Version(), v.NumChunks()
}

// Metadata alone cannot tear.
func metaOnly(t *table.Table) {
	_ = t.NumRows()
	_ = t.Version()
	_ = t.NumChunks()
}

// Distinct tables never pair.
func twoTables(a, b *table.Table) {
	x := a.Chunks()
	y := b.Chunks()
	_, _ = x, y
}

// Raw per-chunk decode bypasses the shared cache: flagged even alone.
func rawChunkDecode(c *table.Chunk) {
	_, _ = c.Columns() // want `Columns\(\) on \*table\.Chunk decodes outside the shared chunk cache`
}

// A documented suppression is honored.
func tornSuppressed(t *table.Table) {
	a := t.Chunks()
	//lint:ignore snapshotread fixture table is private to this goroutine; no concurrent appender exists
	b := t.Chunks()
	_, _ = a, b
}
