// Stub of the engine's table package: snapshotread matches methods on
// *table.Table by (import path, type, method).
package table

// Column is the columnar data interface stub.
type Column interface{}

// Table is the columnar table stub; every method locks independently in the
// real implementation, which is the race the analyzer guards.
type Table struct{ Name string }

// NumRows is a metadata accessor.
func (t *Table) NumRows() int { return 0 }

// Version is a metadata accessor.
func (t *Table) Version() uint64 { return 0 }

// NumChunks is a metadata accessor.
func (t *Table) NumChunks() int { return 0 }

// Chunks captures a consistent view under one lock: the only data accessor.
func (t *Table) Chunks() *ChunkView { return nil }

// ChunkView is the point-in-time capture stub; everything read from one view
// shares one append state.
type ChunkView struct{}

// Columns on a ChunkView decodes the requested columns of chunk k (all of
// them for a nil idx) through the shared decode cache; sanctioned.
func (v *ChunkView) Columns(k int, idx []int) ([]Column, error) { return nil, nil }

// Numeric is the whole-view numeric extraction.
func (v *ChunkView) Numeric(groupCol string, floatCols []string) ([]int64, [][]float64, error) {
	return nil, nil, nil
}

// Rows is the captured row count.
func (v *ChunkView) Rows() int { return 0 }

// Version is the table version the view captured.
func (v *ChunkView) Version() uint64 { return 0 }

// NumChunks counts the view's scan units.
func (v *ChunkView) NumChunks() int { return 0 }

// Chunk is one sealed, encoded chunk.
type Chunk struct{}

// Columns decodes the raw frames, bypassing the cache; flagged outside
// the table package.
func (c *Chunk) Columns() ([]Column, error) { return nil, nil }
