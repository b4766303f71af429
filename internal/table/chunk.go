package table

import (
	"fmt"
	"math"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// DefaultChunkRows is the row budget of one sealed chunk. It matches the
// morsel size of the parallel executor (16 × the batch size), so a morsel is
// exactly "decode one chunk". A var so tests can shrink it to force many
// chunks over small fixtures; per-table thresholds are fixed at New and
// persisted, so changing the default never re-shapes existing tables.
var DefaultChunkRows = 16 * 1024

// ZoneMap summarizes one column of one sealed chunk for scan pruning:
// min/max over the non-NULL, non-NaN values plus the NULL count. HasBounds
// is false for non-numeric columns and for chunks whose column holds no
// finite-comparable value — such chunks can never satisfy a range predicate
// on the column. Sorted says the column is BIGINT, holds no NULL and never
// decreases, so a scan may answer a range over it by binary search.
type ZoneMap struct {
	Min, Max  float64
	Nulls     int
	HasBounds bool
	Sorted    bool
}

// Chunk is an immutable sealed run of rows stored column-encoded: one
// storage.EncodeColumn frame per schema column plus a zone map. Chunks are
// shared by reference between the owning table, scan views and the decoded
// cache; nothing mutates one after sealing.
type Chunk struct {
	rows   int
	frames [][]byte
	zones  []ZoneMap
	// raw is the decoded in-memory footprint estimate (RawSizeBytes
	// accounting); encoded is the summed frame length.
	raw     int
	encoded int
}

// NumRows returns the chunk's row count.
func (ch *Chunk) NumRows() int { return ch.rows }

// Zone returns the zone map of column i.
func (ch *Chunk) Zone(i int) ZoneMap { return ch.zones[i] }

// Columns decodes every column frame, bypassing the decoded-chunk cache.
// External packages should read chunks through ChunkView.Columns (guarded,
// cached) — the snapshotread analyzer flags raw per-chunk access outside
// internal/table.
func (ch *Chunk) Columns() ([]storage.Column, error) { return ch.decode() }

// decode materializes the chunk's columns from their frames.
func (ch *Chunk) decode() ([]storage.Column, error) {
	cols := make([]storage.Column, len(ch.frames))
	for i := range ch.frames {
		c, err := ch.decodeColumn(i)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// decodeColumn materializes column i from its frame.
func (ch *Chunk) decodeColumn(i int) (storage.Column, error) {
	c, err := storage.DecodeColumn(ch.frames[i])
	if err != nil {
		return nil, fmt.Errorf("table: chunk column %d: %w", i, err)
	}
	if c.Len() != ch.rows {
		return nil, fmt.Errorf("table: chunk column %d has %d rows, want %d", i, c.Len(), ch.rows)
	}
	return c, nil
}

// sealChunk encodes n rows of live columns into an immutable chunk.
func sealChunk(cols []storage.Column, n int) *Chunk {
	ch := &Chunk{
		rows:   n,
		frames: make([][]byte, len(cols)),
		zones:  make([]ZoneMap, len(cols)),
	}
	for i, c := range cols {
		ch.frames[i] = storage.EncodeColumn(c)
		ch.zones[i] = zoneOf(c, n)
		ch.encoded += len(ch.frames[i])
		ch.raw += colRawBytes(c, n)
	}
	return ch
}

// zoneOf computes the zone map of the first n rows of a column.
func zoneOf(c storage.Column, n int) ZoneMap {
	var z ZoneMap
	update := func(v float64) {
		if math.IsNaN(v) {
			return
		}
		if !z.HasBounds {
			z.Min, z.Max, z.HasBounds = v, v, true
			return
		}
		if v < z.Min {
			z.Min = v
		}
		if v > z.Max {
			z.Max = v
		}
	}
	switch col := c.(type) {
	case *storage.Int64Column:
		z.Sorted = true
		for i := 0; i < n; i++ {
			if col.Nulls.Get(i) {
				z.Nulls++
				z.Sorted = false
				continue
			}
			if i > 0 && col.Vals[i] < col.Vals[i-1] {
				z.Sorted = false
			}
			// int64 → float64 loses precision beyond 2^53; widen the bounds
			// outward so the zone still over-approximates the true range.
			update(floatLo(col.Vals[i]))
			update(floatHi(col.Vals[i]))
		}
	case *storage.Float64Column:
		for i := 0; i < n; i++ {
			if col.Nulls.Get(i) {
				z.Nulls++
				continue
			}
			update(col.Vals[i])
		}
	default:
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				z.Nulls++
			}
		}
	}
	return z
}

// floatLo returns a float64 ≤ v; floatHi a float64 ≥ v. Inside ±2^53 the
// conversion is exact; beyond it, nudge one ulp outward to stay sound.
func floatLo(v int64) float64 {
	f := float64(v)
	if v > 1<<53 || v < -(1<<53) {
		return math.Nextafter(f, math.Inf(-1))
	}
	return f
}

func floatHi(v int64) float64 {
	f := float64(v)
	if v > 1<<53 || v < -(1<<53) {
		return math.Nextafter(f, math.Inf(1))
	}
	return f
}

// colRawBytes estimates the decoded in-memory footprint of the first n rows
// (the RawSizeBytes accounting).
func colRawBytes(c storage.Column, n int) int {
	switch col := c.(type) {
	case *storage.Int64Column:
		return 8 * n
	case *storage.Float64Column:
		return 8 * n
	case *storage.StringColumn:
		total := 4 * n
		for _, s := range col.Dict {
			total += len(s)
		}
		return total
	case *storage.BoolColumn:
		return (n + 7) / 8
	}
	return 0
}

// prunedBy reports whether the chunk provably holds no row satisfying the
// [lo, hi] interval on column ci. NULL rows never satisfy a comparison, so a
// chunk whose column has no comparable value is pruned whenever any bound is
// set; NaN floats likewise compare false to everything.
func (ch *Chunk) prunedBy(ci int, lo, hi Bound) bool {
	z := ch.zones[ci]
	if !z.HasBounds {
		return lo.Set || hi.Set
	}
	if lo.Set && (z.Max < lo.F || (lo.Strict && z.Max == lo.F)) {
		return true
	}
	if hi.Set && (z.Min > hi.F || (hi.Strict && z.Min == hi.F)) {
		return true
	}
	return false
}

// ChunkView is the one read handle of a table: a consistent point-in-time
// view of its storage — the sealed chunk list plus an immutable snapshot of
// the hot tail, with the row count and version — captured under one lock
// acquisition. Everything that reads row data is a method of the view, so
// all the columns of one answer come from the same rows. Sealed chunks never
// change; the tail snapshot caps each column's slice header at the captured
// row count and prefix-clones its bitmaps, so the view stays valid while
// writers keep appending. Scans address the view by chunk index
// 0..NumChunks()-1, where the tail (when non-empty) is the last,
// never-pruned pseudo-chunk.
type ChunkView struct {
	name     string
	schema   *Schema
	sealed   []*Chunk
	tail     []storage.Column // nil when the tail was empty at capture
	tailRows int
	rows     int
	version  uint64
}

// Chunks captures a ChunkView under one read-lock acquisition. It is the
// only method of Table that returns row data; a reader that needs several
// things (columns, row count, version) takes them all from one capture.
func (t *Table) Chunks() *ChunkView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chunkViewLocked()
}

// chunkViewLocked builds the view; callers hold t.mu.
func (t *Table) chunkViewLocked() *ChunkView {
	v := &ChunkView{
		name:    t.Name,
		schema:  t.schema,
		sealed:  t.sealed[:len(t.sealed):len(t.sealed)],
		rows:    t.sealedRows + t.tailRows,
		version: t.version,
	}
	if t.tailRows > 0 {
		v.tail = make([]storage.Column, len(t.tail))
		for i, c := range t.tail {
			v.tail[i] = prefixView(c, t.tailRows)
		}
		v.tailRows = t.tailRows
	}
	return v
}

// prefixView captures an immutable view of a column's first n rows: slice
// headers capped at n (a concurrent append may write past n or reallocate,
// but never mutates the first n elements) and prefix-cloned bitmaps —
// bitmaps pack many rows per word, so appends mutate words earlier rows
// share. The string dictionary header is likewise capped: appended rows may
// extend it, never rewrite existing entries.
func prefixView(c storage.Column, n int) storage.Column {
	switch col := c.(type) {
	case *storage.Int64Column:
		return &storage.Int64Column{Vals: col.Vals[:n:n], Nulls: col.Nulls.ClonePrefix(n)}
	case *storage.Float64Column:
		return &storage.Float64Column{Vals: col.Vals[:n:n], Nulls: col.Nulls.ClonePrefix(n)}
	case *storage.StringColumn:
		return &storage.StringColumn{
			Codes: col.Codes[:n:n],
			Dict:  col.Dict[:len(col.Dict):len(col.Dict)],
			Nulls: col.Nulls.ClonePrefix(n),
		}
	case *storage.BoolColumn:
		return &storage.BoolColumn{Vals: col.Vals.ClonePrefix(n), Nulls: col.Nulls.ClonePrefix(n)}
	}
	return c
}

// checkRange fails unless every row of column i, BIGINT or DOUBLE, holds a
// number in [lo, hi), the rule Route admits a value by. A sealed chunk
// whose zone map lies inside the range and counts no NULL passes without a
// decode (a NaN, which zone maps skip, passes with it); any other sealed
// chunk, and the tail, are checked value by value.
func (v *ChunkView) checkRange(i int, lo, hi float64) error {
	for k, ch := range v.sealed {
		if z := ch.zones[i]; z.Nulls == 0 && z.HasBounds && z.Min >= lo && z.Max < hi {
			continue
		}
		c, err := ch.decodeColumn(i)
		if err != nil {
			return err
		}
		if err := valuesInRange(c, ch.rows, lo, hi); err != nil {
			return fmt.Errorf("chunk %d: %w", k, err)
		}
	}
	if v.tail == nil {
		return nil
	}
	if err := valuesInRange(v.tail[i], v.tailRows, lo, hi); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	return nil
}

// valuesInRange checks the first n rows of a numeric column against
// [lo, hi); a NULL or a NaN lies in no range.
func valuesInRange(c storage.Column, n int, lo, hi float64) error {
	for r := 0; r < n; r++ {
		var f float64
		switch col := c.(type) {
		case *storage.Int64Column:
			if col.Nulls.Get(r) {
				return fmt.Errorf("row %d is NULL", r)
			}
			f = float64(col.Vals[r])
		case *storage.Float64Column:
			if col.Nulls.Get(r) {
				return fmt.Errorf("row %d is NULL", r)
			}
			f = col.Vals[r]
		default:
			return fmt.Errorf("%T is not numeric", c)
		}
		if !(f >= lo && f < hi) {
			return fmt.Errorf("row %d holds %g, outside the partition's range [%g, %g)", r, f, lo, hi)
		}
	}
	return nil
}

// Schema returns the schema of the table the view was captured from.
func (v *ChunkView) Schema() *Schema { return v.schema }

// Rows returns the view's total row count.
func (v *ChunkView) Rows() int { return v.rows }

// Version returns the table version the view captured.
func (v *ChunkView) Version() uint64 { return v.version }

// NumChunks counts the view's scan units: sealed chunks plus the tail
// pseudo-chunk when it is non-empty.
func (v *ChunkView) NumChunks() int {
	n := len(v.sealed)
	if v.tailRows > 0 {
		n++
	}
	return n
}

// NumSealed counts only the sealed chunks.
func (v *ChunkView) NumSealed() int { return len(v.sealed) }

// Sorted reports whether column i of chunk k is a sorted run (see
// ZoneMap.Sorted). The tail keeps no zone map, so it is never sorted.
func (v *ChunkView) Sorted(k, i int) bool {
	return k < len(v.sealed) && v.sealed[k].zones[i].Sorted
}

// ChunkLen returns the row count of chunk k.
func (v *ChunkView) ChunkLen(k int) int {
	if k < len(v.sealed) {
		return v.sealed[k].rows
	}
	return v.tailRows
}

// Columns materializes the columns idx (schema positions) of chunk k in a
// slice indexed by schema position; a nil idx reads every column. Sealed
// chunks decode only the requested frames, each through the shared
// byte-budgeted cache (a scan's working set, not the table size, bounds
// memory); positions not requested are nil. The tail snapshot is returned
// whole. The returned columns are immutable and safe to share across
// goroutines.
func (v *ChunkView) Columns(k int, idx []int) ([]storage.Column, error) {
	if k < len(v.sealed) {
		if idx == nil {
			idx = make([]int, len(v.schema.Cols))
			for i := range idx {
				idx[i] = i
			}
		}
		return decodedCache.columns(v.sealed[k], idx)
	}
	if v.tail == nil {
		return nil, fmt.Errorf("table %s: chunk %d out of range", v.name, k)
	}
	return v.tail, nil
}

// hasNulls reports whether column i, BIGINT or DOUBLE, holds any NULL in
// the view: sealed chunks answer from their zone maps without decoding, the
// tail from its snapshot's null mask (a prefix clone, clear past the
// captured rows).
func (v *ChunkView) hasNulls(i int) bool {
	for _, ch := range v.sealed {
		if ch.zones[i].Nulls > 0 {
			return true
		}
	}
	if v.tail == nil {
		return false
	}
	switch c := v.tail[i].(type) {
	case *storage.Int64Column:
		return c.Nulls.Any()
	case *storage.Float64Column:
		return c.Nulls.Any()
	}
	return false
}

// numericColumn resolves a column Numeric may extract: it must exist, be
// BIGINT (or DOUBLE when floatOK) and hold no NULL in the view.
func (v *ChunkView) numericColumn(name string, floatOK bool) (int, error) {
	i := v.schema.Index(name)
	if i < 0 {
		return 0, fmt.Errorf("table %s: no column %q", v.name, name)
	}
	switch typ := v.schema.Cols[i].Type; {
	case typ == storage.TypeInt64, floatOK && typ == storage.TypeFloat64:
	case floatOK:
		return 0, fmt.Errorf("table %s: column %q is not numeric", v.name, name)
	default:
		return 0, fmt.Errorf("table %s: column %q is not BIGINT", v.name, name)
	}
	if v.hasNulls(i) {
		return 0, fmt.Errorf("table %s: column %q contains NULLs", v.name, name)
	}
	return i, nil
}

// Numeric extracts the model read set as whole-view slices of Rows()
// entries each: an optional BIGINT group column (groupCol "" returns a nil
// group) and the named numeric columns coerced to float64. Fitting and
// model evaluation need complete numeric data, so an unknown, non-numeric
// or NULL-bearing column is an error; NULL detection reads the sealed
// chunks' zone maps, so such a view fails before any chunk is decoded.
func (v *ChunkView) Numeric(groupCol string, floatCols []string) (group []int64, floats [][]float64, err error) {
	return v.NumericFrom(groupCol, floatCols, 0)
}

// NumericFrom is Numeric over the rows from row from onward: it decodes only
// the chunks holding them, while its column checks still cover the whole
// view, so it fails exactly when Numeric does. Incremental readers extend
// what they derived from an earlier, shorter view of the table with it.
func (v *ChunkView) NumericFrom(groupCol string, floatCols []string, from int) (group []int64, floats [][]float64, err error) {
	from = min(max(from, 0), v.rows)
	gi := -1
	if groupCol != "" {
		if gi, err = v.numericColumn(groupCol, false); err != nil {
			return nil, nil, err
		}
		group = make([]int64, 0, v.rows-from)
	}
	fidx := make([]int, len(floatCols))
	floats = make([][]float64, len(floatCols))
	for j, name := range floatCols {
		if fidx[j], err = v.numericColumn(name, true); err != nil {
			return nil, nil, err
		}
		floats[j] = make([]float64, 0, v.rows-from)
	}
	read := fidx // the frames to decode: the inputs, then the group
	if gi >= 0 {
		read = append(fidx[:len(fidx):len(fidx)], gi)
	}
	k, lo := 0, from
	for k < v.NumChunks() && lo >= v.ChunkLen(k) {
		lo -= v.ChunkLen(k)
		k++
	}
	for ; k < v.NumChunks(); k, lo = k+1, 0 {
		cols, err := v.Columns(k, read)
		if err != nil {
			return nil, nil, err
		}
		n := v.ChunkLen(k)
		if gi >= 0 {
			group = append(group, cols[gi].(*storage.Int64Column).Vals[lo:n]...)
		}
		for j, ci := range fidx {
			switch c := cols[ci].(type) {
			case *storage.Float64Column:
				floats[j] = append(floats[j], c.Vals[lo:n]...)
			case *storage.Int64Column:
				for _, x := range c.Vals[lo:n] {
					floats[j] = append(floats[j], float64(x))
				}
			}
		}
	}
	return group, floats, nil
}

// Head materializes the first min(n, Rows()) rows as boxed values,
// decoding only the chunks that cover the prefix.
func (v *ChunkView) Head(n int) ([][]expr.Value, error) {
	if n > v.rows {
		n = v.rows
	}
	out := make([][]expr.Value, 0, n)
	for k := 0; k < v.NumChunks() && len(out) < n; k++ {
		cols, err := v.Columns(k, nil)
		if err != nil {
			return nil, err
		}
		cl := v.ChunkLen(k)
		for r := 0; r < cl && len(out) < n; r++ {
			vals := make([]expr.Value, len(cols))
			for c, col := range cols {
				vals[c] = col.Value(r)
			}
			out = append(out, vals)
		}
	}
	return out, nil
}

// Survivors prunes the view's chunks against a WHERE predicate: for every
// numeric column it extracts the interval the predicate's AND-tree implies
// (PredBounds, the same machinery partition pruning uses, with qualifier
// matching "col" and "qualifier.col") and drops sealed chunks whose zone
// maps provably cannot satisfy it. The tail is never pruned — its zones are
// not maintained while it mutates. A nil predicate keeps everything.
func (v *ChunkView) Survivors(where expr.Expr, qualifier string) []int {
	total := v.NumChunks()
	all := func() []int {
		keep := make([]int, total)
		for i := range keep {
			keep[i] = i
		}
		return keep
	}
	if where == nil || len(v.sealed) == 0 {
		return all()
	}
	type colBound struct {
		idx    int
		lo, hi Bound
	}
	var bounds []colBound
	for i, def := range v.schema.Cols {
		if def.Type != storage.TypeInt64 && def.Type != storage.TypeFloat64 {
			continue
		}
		lo, hi := PredBounds(where, def.Name, qualifier)
		if lo.Set || hi.Set {
			bounds = append(bounds, colBound{idx: i, lo: lo, hi: hi})
		}
	}
	if len(bounds) == 0 {
		return all()
	}
	keep := make([]int, 0, total)
chunks:
	for k, ch := range v.sealed {
		for _, b := range bounds {
			if ch.prunedBy(b.idx, b.lo, b.hi) {
				continue chunks
			}
		}
		keep = append(keep, k)
	}
	if v.tailRows > 0 {
		keep = append(keep, len(v.sealed))
	}
	return keep
}
