package exec

import (
	"fmt"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// chunkSet is the Open-time capture of a chunk-aware scan's input: one
// consistent ChunkView of the table plus the chunk indices surviving
// zone-map pruning against the statement's WHERE predicate. Scans address
// chunks by dense position 0..len(keep)-1, so pruning is invisible to the
// morsel machinery — survivors simply form a shorter, still serially-ordered
// chunk list.
type chunkSet struct {
	view *table.ChunkView
	keep []int
}

// captureChunks snapshots t and prunes its chunks. alias is the qualifier
// the predicate references the table's columns under (the parent name for
// partition children).
func captureChunks(t *table.Table, where expr.Expr, alias string) (chunkSet, error) {
	if t == nil {
		return chunkSet{}, fmt.Errorf("exec: scan over nil table")
	}
	v := t.Chunks()
	return chunkSet{view: v, keep: v.Survivors(where, alias)}, nil
}

// numChunks returns the surviving chunk count.
func (cs chunkSet) numChunks() int { return len(cs.keep) }

// columns materializes the columns need of surviving chunk k as vectorized
// column sources (decoded through the shared cache), reusing dst's backing
// array, and returns them with the chunk's row count. The sources of the
// columns not in need are zero. A chunk read that needs no column decodes
// nothing. No defensive cloning happens here: decoded columns are private
// to their cache entries and the view's tail snapshot was prefix-cloned at
// capture, so every source is immutable and safe to share across morsel
// workers.
func (cs chunkSet) columns(k int, need []int, dst []vecColSrc) ([]vecColSrc, int, error) {
	ci := cs.keep[k]
	n := cs.view.ChunkLen(ci)
	var cols []storage.Column
	if len(need) > 0 {
		var err error
		if cols, err = cs.view.Columns(ci, need); err != nil {
			return nil, 0, err
		}
	}
	src := append(dst[:0], make([]vecColSrc, len(cs.view.Schema().Cols))...)
	for _, i := range need {
		switch tc := cols[i].(type) {
		case *storage.Int64Column:
			src[i] = vecColSrc{kind: expr.KindInt, sorted: cs.view.Sorted(ci, i), i64: tc.Vals[:n], nulls: someNulls(tc.Nulls)}
		case *storage.Float64Column:
			src[i] = vecColSrc{kind: expr.KindFloat, f64: tc.Vals[:n], nulls: someNulls(tc.Nulls)}
		case *storage.StringColumn:
			src[i] = vecColSrc{kind: expr.KindString, codes: tc.Codes[:n], dict: tc.Dict, nulls: someNulls(tc.Nulls)}
		case *storage.BoolColumn:
			src[i] = vecColSrc{kind: expr.KindBool, bools: tc.Vals, nulls: someNulls(tc.Nulls)}
		default:
			return nil, 0, fmt.Errorf("exec: cannot vectorize column type %T", tc)
		}
	}
	return src, n, nil
}

// someNulls returns a column's null bitmap, or nil when it marks no row, so
// a batch window of a null-free chunk tests one pointer.
func someNulls(bm *storage.Bitmap) *storage.Bitmap {
	if bm == nil || !bm.Any() {
		return nil
	}
	return bm
}

// chunkExplain renders a scan's zone-map pruning for EXPLAIN, mirroring the
// "partitions: k/N pruned" form. Tables with no sealed chunks render
// nothing — there is nothing to prune. The survivor set is computed fresh at
// render time, so EXPLAIN reflects the table's current chunk population.
func chunkExplain(t *table.Table, where expr.Expr, alias string) string {
	if t == nil {
		return ""
	}
	v := t.Chunks()
	if v.NumSealed() == 0 {
		return ""
	}
	total := v.NumChunks()
	kept := len(v.Survivors(where, alias))
	return fmt.Sprintf(" chunks: %d/%d pruned", total-kept, total)
}
