package table

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
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
	back, err := ReadBinary(buf.Bytes())
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
	back, err := ReadBinary(buf.Bytes())
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
	if _, err := ReadBinary(b[:len(b)/2]); err == nil {
		t.Fatal("want error for truncated input")
	}
	bad := append([]byte("XXXXX"), b[5:]...)
	if _, err := ReadBinary(bad); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := ReadBinary(nil); err == nil {
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
		back, err := ReadBinary(buf.Bytes())
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
	_, err := ReadBinary(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("want an error for a truncated name")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading %d bytes allocated %d bytes", len(in), got)
	}
}

// FuzzReadBinary feeds arbitrary bytes to ReadBinary: it must not panic,
// and a table it accepts must save to bytes that load again with the same
// rows. Seeds: two tables with sealed chunks and a tail (the second with
// NULLs in every column), their truncations, and a name length far beyond
// the input.
func FuzzReadBinary(f *testing.F) {
	withChunkRows(f, 8)
	for _, tb := range []*Table{buildChunkFixture(f, 35), goldenTable(f)} {
		var buf bytes.Buffer
		if err := WriteBinary(tb, &buf); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		f.Add(seed)
		for _, cut := range []int{3, 5, 9, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:cut])
		}
	}
	f.Add(binary.AppendUvarint([]byte("DLTB2"), 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadBinary(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(tb, &buf); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		back, err := ReadBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("re-saved table does not load: %v", err)
		}
		if back.NumRows() != tb.NumRows() || back.Name != tb.Name {
			t.Fatalf("reload: %q with %d rows, want %q with %d", back.Name, back.NumRows(), tb.Name, tb.NumRows())
		}
	})
}

// goldenTable is the fixture TestWriteBinaryGolden pins: 20 rows of BIGINT,
// DOUBLE, VARCHAR and BOOLEAN with NULLs in every column, so under a chunk
// budget of 8 it saves as two sealed chunks and a four-row tail.
func goldenTable(t testing.TB) *Table {
	t.Helper()
	tb := New("golden", chunkFixtureSchema(t))
	for i := 0; i < 20; i++ {
		row := []expr.Value{
			expr.Int(int64(3*i - 10)),
			expr.Float(0.25*float64(i) - 1),
			expr.Str(fmt.Sprintf("v%d", i%3)),
			expr.Bool(i%2 == 0),
		}
		for c, every := range []int{7, 5, 6, 4} {
			if i%every == every-1 {
				row[c] = expr.Null()
			}
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// writeBinaryGoldenHex is goldenTable's file: the header, two sealed chunks
// of eight rows and a four-row tail, each as uvarint-prefixed column frames
// (id, x, s, b).
const writeBinaryGoldenHex = "" +
	// magic, name, chunk rows, columns: (name, type code) × 4
	"444c544232" + "06676f6c64656e" + "08" + "04" + "02696400" + "017801" + "017302" + "016203" +
	// two sealed chunks: rows, then one frame per column
	"02" +
	"08" + "0e0001081306060606060916010840" +
	"1901040806bff016181608163006bfd0063fd016301608010810" +
	"18020308030276300276310276320001020001000001010820" + "0703000855010888" +
	"08" + "0e0001081c06060606334006010820" +
	"1c010408063ff0063ff0063ff81604067ffc1602064002064006010842" +
	"18020308030276320276300276310001020001020001010808" + "0703000855010888" +
	// tail: rows, then one frame per column
	"04" + "080001044c06060600" + "100104040640081602160606400c010408" +
	"110203040202763102763000000100010402" + "0703000405010408"

// TestWriteBinaryGolden pins the bytes WriteBinary writes for goldenTable
// and checks that they load back to the same rows and save to themselves.
func TestWriteBinaryGolden(t *testing.T) {
	withChunkRows(t, 8)
	tb := goldenTable(t)
	var buf bytes.Buffer
	if err := WriteBinary(tb, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(writeBinaryGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("file bytes changed\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	back, err := ReadBinary(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Chunks().NumSealed(); got != 2 || back.NumRows() != 20 {
		t.Fatalf("loaded %d rows in %d sealed chunks, want 20 in 2", back.NumRows(), got)
	}
	a, b := allRows(t, tb), allRows(t, back)
	for i := range a {
		for c := range a[i] {
			if !sameVal(a[i][c], b[i][c]) {
				t.Fatalf("row %d col %d: %v, want %v", i, c, b[i][c], a[i][c])
			}
		}
	}
	var again bytes.Buffer
	if err := WriteBinary(back, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("re-save changed the bytes\ngot  %x\nwant %x", again.Bytes(), want)
	}
}
