package table

import (
	"bytes"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

func TestBinaryRoundTrip(t *testing.T) {
	s, err := NewSchema(
		ColumnDef{Name: "source", Type: storage.TypeInt64},
		ColumnDef{Name: "nu", Type: storage.TypeFloat64},
		ColumnDef{Name: "label", Type: storage.TypeString},
		ColumnDef{Name: "ok", Type: storage.TypeBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := New("m", s)
	tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.12), expr.Str("pulsar"), expr.Bool(true)})
	tb.AppendRow([]expr.Value{expr.Int(2), expr.Null(), expr.Str("quasar"), expr.Bool(false)})
	tb.AppendRow([]expr.Value{expr.Int(3), expr.Float(0.18), expr.Null(), expr.Null()})

	var buf bytes.Buffer
	if err := WriteBinary(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "m" || back.NumRows() != 3 {
		t.Fatalf("shape: %s %d", back.Name, back.NumRows())
	}
	a, b := allRows(t, tb), allRows(t, back)
	for i := range a {
		for c := range a[i] {
			if a[i][c].IsNull() != b[i][c].IsNull() {
				t.Fatalf("null mismatch row %d col %d", i, c)
			}
			if !a[i][c].IsNull() && !expr.Equal(a[i][c], b[i][c]) {
				t.Fatalf("row %d col %d: %v vs %v", i, c, a[i][c], b[i][c])
			}
		}
	}
	// Loaded table must accept further appends.
	if err := back.AppendRow([]expr.Value{expr.Int(4), expr.Float(1), expr.Str("grb"), expr.Bool(true)}); err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 4 {
		t.Fatal("append after load")
	}
}

func TestBinaryEmptyTable(t *testing.T) {
	s, _ := NewSchema(ColumnDef{Name: "a", Type: storage.TypeInt64})
	tb := New("empty", s)
	var buf bytes.Buffer
	if err := WriteBinary(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 {
		t.Fatalf("rows = %d", back.NumRows())
	}
}

func TestBinaryCorruption(t *testing.T) {
	s, _ := NewSchema(ColumnDef{Name: "a", Type: storage.TypeInt64})
	tb := New("x", s)
	for i := 0; i < 10; i++ {
		tb.AppendRow([]expr.Value{expr.Int(int64(i))})
	}
	var buf bytes.Buffer
	WriteBinary(tb, &buf)
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Fatal("want error for truncated input")
	}
	bad := append([]byte("XXXXX"), b[5:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("want error for empty input")
	}
}

// TestWriteBinaryConcurrentAppend: serialization must snapshot the table —
// encoding columns at different lengths (or racing a slice reallocation)
// produces a file ReadBinary rejects. Run under -race.
func TestWriteBinaryConcurrentAppend(t *testing.T) {
	tb := New("m", lofarSchema(t))
	for i := 0; i < 1000; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(int64(i)), expr.Float(0.15), expr.Float(2)}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.15), expr.Float(2)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(tb, &buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("snapshot save produced unloadable file: %v", err)
		}
		if back.NumRows() < 1000 {
			t.Fatalf("rows = %d", back.NumRows())
		}
	}
	close(stop)
	<-done
}
