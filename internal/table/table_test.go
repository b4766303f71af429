package table

import (
	"bytes"
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

func lofarSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		ColumnDef{Name: "source", Type: storage.TypeInt64},
		ColumnDef{Name: "nu", Type: storage.TypeFloat64},
		ColumnDef{Name: "intensity", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSchema(t *testing.T, cols ...ColumnDef) *Schema {
	t.Helper()
	s, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(ColumnDef{Name: "a"}, ColumnDef{Name: "a"}); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := NewSchema(ColumnDef{Name: ""}); err == nil {
		t.Fatal("want empty-name error")
	}
	s := lofarSchema(t)
	if s.Index("nu") != 1 || s.Index("missing") != -1 {
		t.Fatal("Index")
	}
	if got := s.Names(); got[0] != "source" || len(got) != 3 {
		t.Fatalf("Names = %v", got)
	}
}

func TestAppendAndRead(t *testing.T) {
	tb := New("measurements", lofarSchema(t))
	rows := [][]expr.Value{
		{expr.Int(1), expr.Float(0.12), expr.Float(2.3)},
		{expr.Int(1), expr.Float(0.15), expr.Float(2.1)},
		{expr.Int(2), expr.Float(0.12), expr.Null()},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	got := allRows(t, tb)
	if got[1][0].I != 1 || got[1][1].F != 0.15 {
		t.Fatalf("row 1 = %v", got[1])
	}
	if !got[2][2].IsNull() {
		t.Fatal("NULL lost")
	}
}

func TestAppendRowWrongArity(t *testing.T) {
	tb := New("m", lofarSchema(t))
	if err := tb.AppendRow([]expr.Value{expr.Int(1)}); err == nil {
		t.Fatal("want arity error")
	}
}

func TestAppendRowTypeErrorRollsBack(t *testing.T) {
	tb := New("m", lofarSchema(t))
	err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Str("bad"), expr.Float(1)})
	if err == nil {
		t.Fatal("want type error")
	}
	if tb.NumRows() != 0 {
		t.Fatalf("rows = %d after failed append", tb.NumRows())
	}
	// Columns must stay aligned for subsequent appends.
	if err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.1), expr.Float(2)}); err != nil {
		t.Fatal(err)
	}
	cols, err := tb.Chunks().Columns(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Len() != 1 || cols[1].Len() != 1 {
		t.Fatal("columns misaligned after rollback")
	}
}

func TestVersionBumpsOnAppend(t *testing.T) {
	tb := New("m", lofarSchema(t))
	v0 := tb.Version()
	tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.1), expr.Float(2)})
	if tb.Version() <= v0 {
		t.Fatal("version did not advance")
	}
}

func TestFloatColumnExtraction(t *testing.T) {
	tb := New("m", lofarSchema(t))
	tb.AppendRow([]expr.Value{expr.Int(5), expr.Float(0.12), expr.Float(2.5)})
	tb.AppendRow([]expr.Value{expr.Int(6), expr.Float(0.15), expr.Float(2.7)})
	v := tb.Chunks()
	// One extraction: the BIGINT group key, a float column, and the int
	// column coerced to float.
	is, fs, err := v.Numeric("source", []string{"nu", "source"})
	if err != nil || len(fs[0]) != 2 || fs[0][1] != 0.15 {
		t.Fatalf("Numeric: %v %v", fs, err)
	}
	if fs[1][0] != 5 {
		t.Fatalf("int coercion: %v", fs[1])
	}
	if len(is) != 2 || is[1] != 6 {
		t.Fatalf("group key: %v", is)
	}
	if g, _, err := v.Numeric("", []string{"nu"}); err != nil || g != nil {
		t.Fatalf("ungrouped extraction: group %v, %v", g, err)
	}
	if _, _, err := v.Numeric("", []string{"missing"}); err == nil {
		t.Fatal("want missing-column error")
	}
	if _, _, err := v.Numeric("missing", nil); err == nil {
		t.Fatal("want missing-group-column error")
	}
	if _, _, err := v.Numeric("nu", nil); err == nil {
		t.Fatal("want type error: group column must be BIGINT")
	}
	st := New("s", mustSchema(t, ColumnDef{Name: "label", Type: storage.TypeString}))
	st.AppendRow([]expr.Value{expr.Str("a")})
	if _, _, err := st.Chunks().Numeric("", []string{"label"}); err == nil {
		t.Fatal("want non-numeric error")
	}
}

func TestFloatColumnRejectsNulls(t *testing.T) {
	tb := New("m", lofarSchema(t))
	tb.AppendRow([]expr.Value{expr.Int(1), expr.Null(), expr.Float(1)})
	if _, _, err := tb.Chunks().Numeric("", []string{"nu"}); err == nil {
		t.Fatal("want NULL error")
	}
}

func TestRawSizeBytes(t *testing.T) {
	tb := New("m", lofarSchema(t))
	for i := 0; i < 100; i++ {
		tb.AppendRow([]expr.Value{expr.Int(int64(i)), expr.Float(0.1), expr.Float(2)})
	}
	// 3 columns × 8 bytes × 100 rows.
	if got := tb.RawSizeBytes(); got != 2400 {
		t.Fatalf("RawSizeBytes = %d, want 2400", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := lofarSchema(t)
	tb, err := c.Create("m", s)
	if err != nil || tb == nil {
		t.Fatal(err)
	}
	if _, err := c.Create("m", s); err == nil {
		t.Fatal("want duplicate error")
	}
	got, ok := c.Get("m")
	if !ok || got != tb {
		t.Fatal("Get")
	}
	if len(c.Names()) != 1 {
		t.Fatal("Names")
	}
	if !c.Drop("m") || c.Drop("m") {
		t.Fatal("Drop")
	}
	other := New("x", s)
	if err := c.Add(other); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(other); err == nil {
		t.Fatal("want duplicate on Add")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := "source,nu,intensity,label\n1,0.12,2.31,alpha\n2,0.15,,beta\n3,0.16,1.59,\n"
	tb, err := ReadCSV("m", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	sch := tb.Schema()
	if sch.Cols[0].Type != storage.TypeInt64 {
		t.Fatalf("source type = %v", sch.Cols[0].Type)
	}
	if sch.Cols[1].Type != storage.TypeFloat64 {
		t.Fatalf("nu type = %v", sch.Cols[1].Type)
	}
	if sch.Cols[3].Type != storage.TypeString {
		t.Fatalf("label type = %v", sch.Cols[3].Type)
	}
	a := allRows(t, tb)
	if !a[1][2].IsNull() {
		t.Fatal("empty field must be NULL")
	}
	var buf bytes.Buffer
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("m2", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatal("row count changed")
	}
	b := allRows(t, back)
	for i := range a {
		for c := range a[i] {
			if a[i][c].IsNull() != b[i][c].IsNull() {
				t.Fatalf("null mismatch row %d col %d", i, c)
			}
			if !a[i][c].IsNull() && !expr.Equal(a[i][c], b[i][c]) {
				t.Fatalf("value mismatch row %d col %d: %v vs %v", i, c, a[i][c], b[i][c])
			}
		}
	}
}

// TestCSVRoundTripChunked: WriteCSV walks sealed chunks and the tail of one
// view in row order.
func TestCSVRoundTripChunked(t *testing.T) {
	withChunkRows(t, 8)
	tb := buildChunkFixture(t, 35) // 4 sealed chunks + a tail of 3
	var buf bytes.Buffer
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("cf2", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	want, got := allRows(t, tb), allRows(t, back)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !sameVal(got[i][c], want[i][c]) {
				t.Fatalf("row %d col %d: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestCSVBoolInference(t *testing.T) {
	in := "flag\ntrue\nfalse\ntrue\n"
	tb, err := ReadCSV("f", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema().Cols[0].Type != storage.TypeBool {
		t.Fatalf("type = %v", tb.Schema().Cols[0].Type)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("want error for ragged row")
	}
}

func TestAppendRowsBatch(t *testing.T) {
	tb := New("t", mustSchema(t,
		ColumnDef{Name: "a", Type: storage.TypeInt64},
		ColumnDef{Name: "b", Type: storage.TypeFloat64},
	))
	v0 := tb.Version()
	rows := [][]expr.Value{
		{expr.Int(1), expr.Float(1.5)},
		{expr.Int(2), expr.Float(2.5)},
		{expr.Int(3), expr.Float(3.5)},
	}
	n, err := tb.AppendRows(rows)
	if err != nil || n != 3 {
		t.Fatalf("AppendRows = %d, %v", n, err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// One version bump per batch, not per row.
	if tb.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", tb.Version(), v0+1)
	}
	// Empty batch: no bump.
	if n, err := tb.AppendRows(nil); err != nil || n != 0 {
		t.Fatalf("empty batch = %d, %v", n, err)
	}
	if tb.Version() != v0+1 {
		t.Fatal("empty batch bumped version")
	}
}

func TestAppendRowsPartialFailure(t *testing.T) {
	tb := New("t", mustSchema(t,
		ColumnDef{Name: "a", Type: storage.TypeInt64},
	))
	rows := [][]expr.Value{
		{expr.Int(1)},
		{expr.Str("nope")}, // type error
		{expr.Int(3)},
	}
	n, err := tb.AppendRows(rows)
	if err == nil || n != 1 {
		t.Fatalf("AppendRows = %d, %v", n, err)
	}
	// The prefix persists, columns stay aligned, and the version moved
	// because data changed.
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Version() == 0 {
		t.Fatal("partial batch should bump version")
	}
}

func TestCatalogEpoch(t *testing.T) {
	c := NewCatalog()
	e0 := c.Epoch()
	if _, err := c.Create("t", mustSchema(t, ColumnDef{Name: "a", Type: storage.TypeInt64})); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() == e0 {
		t.Fatal("create did not bump epoch")
	}
	e1 := c.Epoch()
	if !c.Drop("t") {
		t.Fatal("drop failed")
	}
	if c.Epoch() == e1 {
		t.Fatal("drop did not bump epoch")
	}
	// Failed operations leave the epoch alone.
	e2 := c.Epoch()
	if c.Drop("missing") {
		t.Fatal("dropped a missing table")
	}
	if c.Epoch() != e2 {
		t.Fatal("failed drop bumped epoch")
	}
}
