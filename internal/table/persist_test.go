package table

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/iotest"

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

// TestReadBinaryCorruptLengthAllocatesLittle: a length prefix is not trusted
// for an allocation. "DLTB2" and a 2^31 name length with nothing behind it
// must fail after allocating about what the input holds, not 2 GiB.
func TestReadBinaryCorruptLengthAllocatesLittle(t *testing.T) {
	in := binary.AppendUvarint([]byte("DLTB2"), 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("want an error for a truncated name")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading %d bytes allocated %d bytes", len(in), got)
	}
}

// FuzzReadBinary feeds arbitrary bytes to ReadBinary, one byte per Read
// call, so no length is read in one piece: it must not panic, and a table
// it accepts must save to bytes that load again with the same rows. Seeds:
// a DLTB2 table with sealed chunks and a tail, a DLTB1 table, and
// truncations of both.
func FuzzReadBinary(f *testing.F) {
	withChunkRows(f, 8)
	var v2 bytes.Buffer
	if err := WriteBinary(buildChunkFixture(f, 35), &v2); err != nil {
		f.Fatal(err)
	}
	ic, fc := storage.NewInt64Column(), storage.NewFloat64Column()
	for i := 0; i < 20; i++ {
		ic.Append(int64(i))
		fc.Append(float64(i) * 1.5)
	}
	var v1 bytes.Buffer
	v1.WriteString("DLTB1")
	writeBytes(&v1, []byte("legacy"))
	writeUvarint(&v1, 2)
	writeBytes(&v1, []byte("id"))
	writeBytes(&v1, storage.EncodeColumn(ic))
	writeBytes(&v1, []byte("x"))
	writeBytes(&v1, storage.EncodeColumn(fc))
	for _, seed := range [][]byte{v2.Bytes(), v1.Bytes()} {
		f.Add(seed)
		for _, cut := range []int{3, 5, 9, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:cut])
		}
	}
	f.Add(binary.AppendUvarint([]byte("DLTB2"), 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadBinary(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(tb, &buf); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-saved table does not load: %v", err)
		}
		if back.NumRows() != tb.NumRows() || back.Name != tb.Name {
			t.Fatalf("reload: %q with %d rows, want %q with %d", back.Name, back.NumRows(), tb.Name, tb.NumRows())
		}
	})
}
