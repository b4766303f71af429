package table

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// withChunkRows shrinks the seal threshold for tables created inside the
// test, restoring it when the test ends. It must run before the fixture is
// built: the threshold is captured at New.
func withChunkRows(t testing.TB, n int) {
	t.Helper()
	old := DefaultChunkRows
	DefaultChunkRows = n
	t.Cleanup(func() { DefaultChunkRows = old })
}

func chunkFixtureSchema(t testing.TB) *Schema {
	t.Helper()
	schema, err := NewSchema(
		ColumnDef{Name: "id", Type: storage.TypeInt64},
		ColumnDef{Name: "x", Type: storage.TypeFloat64},
		ColumnDef{Name: "s", Type: storage.TypeString},
		ColumnDef{Name: "b", Type: storage.TypeBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// chunkFixtureRow generates row i deterministically; some rows carry NULLs
// so seal/decode must round-trip bitmaps, and x mixes a linear trend with
// noise so several encodings stay in play.
func chunkFixtureRow(i int) []expr.Value {
	row := []expr.Value{
		expr.Int(int64(i)),
		expr.Float(3.5*float64(i) + float64(i%7)),
		expr.Str(fmt.Sprintf("s%d", i%5)),
		expr.Bool(i%3 == 0),
	}
	if i%11 == 3 {
		row[1] = expr.Null()
	}
	if i%13 == 5 {
		row[2] = expr.Null()
	}
	return row
}

func buildChunkFixture(t testing.TB, rows int) *Table {
	t.Helper()
	tb := New("cf", chunkFixtureSchema(t))
	batch := make([][]expr.Value, rows)
	for i := range batch {
		batch[i] = chunkFixtureRow(i)
	}
	if n, err := tb.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("append: %d, %v", n, err)
	}
	return tb
}

// allRows reads every row of one view of tb as boxed values.
func allRows(t *testing.T, tb *Table) [][]expr.Value {
	t.Helper()
	v := tb.Chunks()
	rows, err := v.Head(v.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != v.Rows() {
		t.Fatalf("Head(%d) returned %d rows", v.Rows(), len(rows))
	}
	return rows
}

// TestSealingAndAccessors pins the two-tier shape (rows/chunkRows sealed
// chunks plus a hot tail) and that every accessor agrees with the appended
// data across seal boundaries.
func TestSealingAndAccessors(t *testing.T) {
	withChunkRows(t, 8)
	const rows = 35
	tb := buildChunkFixture(t, rows)

	if got := tb.NumRows(); got != rows {
		t.Fatalf("NumRows = %d, want %d", got, rows)
	}
	v := tb.Chunks()
	if v.NumSealed() != 4 {
		t.Fatalf("NumSealed = %d, want 4", v.NumSealed())
	}
	if v.NumChunks() != 5 {
		t.Fatalf("NumChunks = %d, want 5 (4 sealed + tail)", v.NumChunks())
	}
	if tb.NumChunks() != 5 {
		t.Fatalf("Table.NumChunks = %d, want 5", tb.NumChunks())
	}

	// A full-length Head crosses every seal boundary.
	got := allRows(t, tb)
	for i := 0; i < rows; i++ {
		want := chunkFixtureRow(i)
		for c := range want {
			if !sameVal(got[i][c], want[c]) {
				t.Fatalf("row %d col %d = %v, want %v", i, c, got[i][c], want[c])
			}
		}
	}

	// The numeric extraction concatenates all chunks: the null-free id
	// column as the BIGINT group key and, coerced, as a float column.
	ids, fl, err := v.Numeric("id", []string{"id"})
	if err != nil || len(ids) != rows || len(fl[0]) != rows {
		t.Fatalf("Numeric(id): %v, %d keys, %d floats", err, len(ids), len(fl[0]))
	}
	for i := 0; i < rows; i++ {
		if ids[i] != int64(i) || fl[0][i] != float64(i) {
			t.Fatalf("id[%d] = %d / %v", i, ids[i], fl[0][i])
		}
	}

	// Head spans the first seal boundary; the total comes from the same view.
	head, err := v.Head(10)
	if err != nil || v.Rows() != rows || len(head) != 10 {
		t.Fatalf("Head = %d rows (%v), total %d", len(head), err, v.Rows())
	}
	if !sameVal(head[9][0], expr.Int(9)) {
		t.Fatalf("Head row 9 id = %v", head[9][0])
	}

	// Numeric must refuse the NULL-bearing x — and the zone maps answer
	// before any chunk is decoded.
	ResetCacheStats()
	if _, _, err := v.Numeric("", []string{"x"}); err == nil {
		t.Fatal("Numeric(x) should fail: column has NULLs")
	}
	if st := CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("NULL rejection touched the chunk cache: %+v", st)
	}
}

// TestZoneMapSurvivors pins pruning: with ascending ids, a lower-bound
// predicate keeps only the top chunks; the tail always survives.
func TestZoneMapSurvivors(t *testing.T) {
	withChunkRows(t, 8)
	tb := buildChunkFixture(t, 35) // chunks: [0..7][8..15][16..23][24..31] + tail [32..34]

	parse := func(src string) expr.Expr {
		e, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return e
	}
	v := tb.Chunks()
	cases := []struct {
		pred string
		want []int
	}{
		{"id >= 24", []int{3, 4}},
		{"id < 8", []int{0, 4}},
		{"id > 7 AND id <= 16", []int{1, 2, 4}},
		{"cf.id = 20", []int{2, 4}},
		{"id > 100", []int{4}},             // everything sealed pruned; tail stays
		{"s = 's3'", []int{0, 1, 2, 3, 4}}, // non-numeric: no pruning
	}
	for _, tc := range cases {
		got := v.Survivors(parse(tc.pred), "cf")
		if len(got) != len(tc.want) {
			t.Fatalf("Survivors(%q) = %v, want %v", tc.pred, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Survivors(%q) = %v, want %v", tc.pred, got, tc.want)
			}
		}
	}
	if got := v.Survivors(nil, "cf"); len(got) != 5 {
		t.Fatalf("Survivors(nil) = %v, want all 5", got)
	}
}

// TestZoneMapNullChunk: a chunk whose column is entirely NULL (or NaN) has
// no bounds and is pruned by any range predicate — NULL never satisfies a
// comparison.
func TestZoneMapNullChunk(t *testing.T) {
	withChunkRows(t, 4)
	schema, err := NewSchema(ColumnDef{Name: "x", Type: storage.TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	tb := New("nn", schema)
	rows := [][]expr.Value{
		{expr.Null()}, {expr.Null()}, {expr.Float(math.NaN())}, {expr.Null()}, // chunk 0: unbounded
		{expr.Float(1)}, {expr.Float(2)}, {expr.Float(3)}, {expr.Float(4)}, // chunk 1
	}
	if _, err := tb.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	pred, err := expr.Parse("x > 0")
	if err != nil {
		t.Fatal(err)
	}
	got := tb.Chunks().Survivors(pred, "nn")
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Survivors = %v, want [1]", got)
	}
}

// TestZoneMapInt64Precision: int64 zone bounds beyond 2^53 widen outward so
// pruning stays sound despite float64 rounding.
func TestZoneMapInt64Precision(t *testing.T) {
	withChunkRows(t, 2)
	schema, err := NewSchema(ColumnDef{Name: "k", Type: storage.TypeInt64})
	if err != nil {
		t.Fatal(err)
	}
	tb := New("big", schema)
	const huge = int64(1<<53 + 1) // float64(huge) rounds DOWN to 2^53
	if _, err := tb.AppendRows([][]expr.Value{{expr.Int(huge)}, {expr.Int(huge)}}); err != nil {
		t.Fatal(err)
	}
	// The predicate k >= 2^53+1 must keep the chunk: its true max is 2^53+1
	// even though the rounded float max says 2^53.
	pred := &expr.Binary{Op: expr.OpGe, L: &expr.Ident{Name: "k"}, R: &expr.Lit{Val: expr.Int(huge)}}
	if got := tb.Chunks().Survivors(pred, "big"); len(got) != 1 {
		t.Fatalf("Survivors = %v, want the chunk kept", got)
	}
}

// TestChunkCacheBudget: a scan over a table whose decoded size is several
// times the cache budget completes correctly while the cache never retains
// more than the budget.
func TestChunkCacheBudget(t *testing.T) {
	withChunkRows(t, 64)
	schema, err := NewSchema(
		ColumnDef{Name: "id", Type: storage.TypeInt64},
		ColumnDef{Name: "x", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := New("lrg", schema)
	const rows = 64 * 32 // 32 sealed chunks, raw 64*16 = 1 KiB each
	batch := make([][]expr.Value, rows)
	for i := range batch {
		batch[i] = []expr.Value{expr.Int(int64(i)), expr.Float(float64(i) * 0.5)}
	}
	if _, err := tb.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	raw := tb.RawSizeBytes()
	budget := int64(raw / 4)
	SetChunkCacheBudget(budget)
	t.Cleanup(func() { SetChunkCacheBudget(DefaultChunkCacheBytes) })
	ResetCacheStats()

	// Two full passes: the working set exceeds the budget, so the second
	// pass still misses (the cache cannot hold everything), yet every value
	// comes back right.
	for pass := 0; pass < 2; pass++ {
		var sum float64
		v := tb.Chunks()
		for k := 0; k < v.NumChunks(); k++ {
			cols, err := v.Columns(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range cols[1].(*storage.Float64Column).Vals[:v.ChunkLen(k)] {
				sum += x
			}
		}
		want := 0.5 * float64(rows) * float64(rows-1) / 2
		if sum != want {
			t.Fatalf("pass %d: sum = %v, want %v", pass, sum, want)
		}
	}
	st := CacheStats()
	if st.Used > st.Budget {
		t.Fatalf("cache retains %d bytes over budget %d", st.Used, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with budget %d over raw %d; stats %+v", budget, raw, st)
	}
	if st.Misses == 0 {
		t.Fatal("expected decode misses")
	}
}

// TestChunkCacheDisabled: budget 0 still serves reads (uncached).
func TestChunkCacheDisabled(t *testing.T) {
	withChunkRows(t, 8)
	SetChunkCacheBudget(0)
	t.Cleanup(func() { SetChunkCacheBudget(DefaultChunkCacheBytes) })
	tb := buildChunkFixture(t, 20)
	v := tb.Chunks()
	for k := 0; k < v.NumChunks(); k++ {
		if _, err := v.Columns(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := CacheStats(); st.Used != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache retained %+v", st)
	}
}

// TestChunkViewStableUnderAppend: a captured view must not see rows
// appended after capture, even across a seal of the tail it snapshotted.
func TestChunkViewStableUnderAppend(t *testing.T) {
	withChunkRows(t, 8)
	tb := buildChunkFixture(t, 12) // 1 sealed + tail of 4
	v := tb.Chunks()
	if v.Rows() != 12 || v.NumChunks() != 2 {
		t.Fatalf("view: %d rows, %d chunks", v.Rows(), v.NumChunks())
	}
	// Push the tail over the seal threshold.
	for i := 12; i < 30; i++ {
		if err := tb.AppendRow(chunkFixtureRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Rows() != 12 {
		t.Fatalf("view grew to %d rows", v.Rows())
	}
	cols, err := v.Columns(1, nil) // the captured tail
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Len() != 4 {
		t.Fatalf("captured tail has %d rows, want 4", cols[0].Len())
	}
	for i := 0; i < 4; i++ {
		if got := cols[0].(*storage.Int64Column).Vals[i]; got != int64(8+i) {
			t.Fatalf("tail id[%d] = %d, want %d", i, got, 8+i)
		}
	}
	// The whole-view reads hang off the same capture: still the 12-row prefix.
	ids, _, err := v.Numeric("id", nil)
	if err != nil || len(ids) != 12 || ids[11] != 11 {
		t.Fatalf("Numeric after append: %v, ids %v", err, ids)
	}
	head, err := v.Head(100)
	if err != nil || len(head) != 12 || !sameVal(head[11][0], expr.Int(11)) {
		t.Fatalf("Head after append: %v, %d rows", err, len(head))
	}
}

// TestPersistRoundTripChunked: DLTB2 write → read preserves every row
// bit-for-bit, the chunk layout, the seal threshold, and the encoded frames
// verbatim; the loaded table keeps absorbing appends.
func TestPersistRoundTripChunked(t *testing.T) {
	withChunkRows(t, 8)
	tb := buildChunkFixture(t, 35)
	var buf bytes.Buffer
	if err := WriteBinary(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 35 || back.chunkRows != 8 {
		t.Fatalf("loaded: %d rows, chunkRows %d", back.NumRows(), back.chunkRows)
	}
	bv, ov := back.Chunks(), tb.Chunks()
	if bv.NumSealed() != ov.NumSealed() || bv.NumChunks() != ov.NumChunks() {
		t.Fatalf("chunk layout changed: %d/%d vs %d/%d", bv.NumSealed(), bv.NumChunks(), ov.NumSealed(), ov.NumChunks())
	}
	if back.EncodedSizeBytes() != tb.EncodedSizeBytes() {
		t.Fatalf("encoded bytes %d vs %d: frames not verbatim", back.EncodedSizeBytes(), tb.EncodedSizeBytes())
	}
	want, got := allRows(t, tb), allRows(t, back)
	for i := range want {
		for c := range want[i] {
			if !sameVal(got[i][c], want[i][c]) {
				t.Fatalf("row %d col %d: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	// The loaded table seals like the original (threshold came from the file).
	for i := 35; i < 48; i++ {
		if err := back.AppendRow(chunkFixtureRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := back.Chunks().NumSealed(); got != 6 {
		t.Fatalf("post-load sealing: %d sealed, want 6", got)
	}
}

// TestPersistRoundTripExoticFloats: NaN payloads and signed zeros survive
// the seal → persist → load path bit-exactly (the linear/XOR codecs store
// residuals as bit XORs, never arithmetic differences).
func TestPersistRoundTripExoticFloats(t *testing.T) {
	withChunkRows(t, 4)
	schema, err := NewSchema(ColumnDef{Name: "x", Type: storage.TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	tb := New("fx", schema)
	bitsIn := []uint64{
		0x7FF8000000000001, // NaN with payload
		0xFFF8000000000000, // negative NaN
		math.Float64bits(math.Inf(1)),
		0x8000000000000000, // -0
		math.Float64bits(1.5),
		math.Float64bits(-2.5),
		0x7FF0000000000001, // signaling-NaN pattern
		math.Float64bits(5e-324),
	}
	rows := make([][]expr.Value, len(bitsIn))
	for i, b := range bitsIn {
		rows[i] = []expr.Value{expr.Float(math.Float64frombits(b))}
	}
	if _, err := tb.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, cols, err := back.Chunks().Numeric("", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range bitsIn {
		if got := math.Float64bits(cols[0][i]); got != want {
			t.Fatalf("row %d: bits %016x, want %016x", i, got, want)
		}
	}
}

// TestPersistLegacyV1: the old flat DLTB1 format still loads, re-sealing
// under the current chunk budget.
func TestPersistLegacyV1(t *testing.T) {
	withChunkRows(t, 8)
	// Hand-encode a v1 stream: magic | name | ncols | per-col name+frame.
	ic := storage.NewInt64Column()
	fc := storage.NewFloat64Column()
	for i := 0; i < 20; i++ {
		ic.Append(int64(i))
		fc.Append(float64(i) * 1.5)
	}
	var buf bytes.Buffer
	buf.WriteString("DLTB1")
	writeBytes(&buf, []byte("legacy"))
	writeUvarint(&buf, 2)
	writeBytes(&buf, []byte("id"))
	writeBytes(&buf, storage.EncodeColumn(ic))
	writeBytes(&buf, []byte("x"))
	writeBytes(&buf, storage.EncodeColumn(fc))

	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "legacy" || back.NumRows() != 20 {
		t.Fatalf("loaded %q with %d rows", back.Name, back.NumRows())
	}
	if got := back.Chunks().NumSealed(); got != 2 {
		t.Fatalf("re-seal: %d sealed chunks, want 2", got)
	}
	for i, row := range allRows(t, back) {
		if !sameVal(row[0], expr.Int(int64(i))) || !sameVal(row[1], expr.Float(float64(i)*1.5)) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

// sameVal compares boxed values bit-exactly for floats.
func sameVal(a, b expr.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == expr.KindFloat {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a.String() == b.String()
}
