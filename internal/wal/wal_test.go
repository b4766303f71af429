package wal

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

func appendRec(table string, rows ...[]expr.Value) *Record {
	return &Record{Type: TypeAppend, Table: table, Rows: rows}
}

func row(vs ...expr.Value) []expr.Value { return vs }

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		appendRec("m", row(expr.Int(1), expr.Float(2.5), expr.Str("x"), expr.Bool(true), expr.Null())),
		appendRec("empty"),
		{Type: TypeCreateTable, Decl: &table.Decl{Name: "t", Cols: []table.ColumnDef{{Name: "a", Type: 0}, {Name: "b", Type: 1}}}},
		{Type: TypeCreateTable, Decl: &table.Decl{Name: "p", Cols: []table.ColumnDef{{Name: "k", Type: 1}},
			PartCol: "k", Parts: []table.RangePartition{{Name: "p0", Upper: 10}, {Name: "p1", Max: true}}}},
		{Type: TypeDropTable, Table: "t"},
		{Type: TypeFitModel, Fit: &modelstore.ModelRecord{
			Name: "law", Table: "m", Formula: "y ~ a * pow(x, b)", Inputs: []string{"x"},
			GroupBy: "g", WhereSrc: "x > 0", Start: map[string]float64{"a": 1, "b": -1}, Method: "lm",
		}},
		{Type: TypeRefitModel, Name: "law"},
		{Type: TypeDropModel, Name: "law"},
	}
	for i, rec := range recs {
		got, err := Decode(rec.Encode())
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("record %d: round trip mismatch\nwant %+v\ngot  %+v", i, rec, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, payload := range [][]byte{nil, {0}, {99}, {byte(TypeAppend)}, append(appendRec("t").Encode(), 0xFF)} {
		if _, err := Decode(payload); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload %v: want ErrCorrupt, got %v", payload, err)
		}
	}
}

// openLog opens a log over fs collecting replayed records.
func openLog(t *testing.T, fs FS, startSeg int, cfg Config) (*Log, []*Record) {
	t.Helper()
	var replayed []*Record
	cfg.FS = fs
	l, err := Open("wal", startSeg, cfg, func(r *Record) error {
		replayed = append(replayed, r)
		return nil
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, replayed
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, _ := openLog(t, fs, 0, Config{})
	want := []*Record{
		appendRec("m", row(expr.Int(1), expr.Float(1.5))),
		{Type: TypeCreateTable, Decl: &table.Decl{Name: "t", Cols: []table.ColumnDef{{Name: "a", Type: 0}}}},
		appendRec("t", row(expr.Int(7))),
	}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := l.Append(appendRec("m")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: want ErrClosed, got %v", err)
	}

	l2, replayed := openLog(t, fs, 0, Config{})
	defer l2.Close()
	if !reflect.DeepEqual(want, replayed) {
		t.Fatalf("replay mismatch\nwant %v\ngot  %v", want, replayed)
	}
	if got := l2.Stats().Replayed; got != len(want) {
		t.Fatalf("replayed count: want %d got %d", len(want), got)
	}
}

func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	fs := NewMemFS()
	l, _ := openLog(t, fs, 0, Config{BatchSize: 64, MaxWait: 20 * time.Millisecond})
	defer l.Close()
	const writers = 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := l.Append(appendRec("m", row(expr.Int(int64(w))))); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers {
		t.Fatalf("records: want %d got %d", writers, st.Records)
	}
	if st.Groups >= writers {
		t.Fatalf("no batching happened: %d groups for %d records", st.Groups, st.Records)
	}
	// Every acked record must already be durable: nothing unsynced remains.
	if n := fs.UnsyncedBytes(); n != 0 {
		t.Fatalf("acked records left %d unsynced bytes", n)
	}
}

func TestSegmentRotationAndReclaim(t *testing.T) {
	fs := NewMemFS()
	l, _ := openLog(t, fs, 0, Config{SegmentBytes: 256})
	var want []*Record
	for i := 0; i < 50; i++ {
		rec := appendRec("m", row(expr.Int(int64(i)), expr.Str("padding-padding")))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Segment == 0 {
		t.Fatal("expected size-based rotation to advance the segment")
	}
	l.Close()

	l2, replayed := openLog(t, fs, 0, Config{SegmentBytes: 256})
	if !reflect.DeepEqual(want, replayed) {
		t.Fatalf("multi-segment replay mismatch: want %d records, got %d", len(want), len(replayed))
	}

	// Checkpoint flow: rotate, then reclaim everything below the new head.
	head, err := l2.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := l2.ReclaimBelow(head); err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if err := l2.Append(appendRec("m", row(expr.Int(99)))); err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}
	l2.Close()

	l3, replayed3 := openLog(t, fs, head, Config{})
	defer l3.Close()
	if len(replayed3) != 1 || replayed3[0].Rows[0][0].I != 99 {
		t.Fatalf("replay after checkpoint: want just the post-rotation record, got %d", len(replayed3))
	}
}

func TestOpenReclaimsPreCheckpointSegments(t *testing.T) {
	fs := NewMemFS()
	l, _ := openLog(t, fs, 0, Config{})
	l.Append(appendRec("m", row(expr.Int(1))))
	head, _ := l.Rotate()
	l.Append(appendRec("m", row(expr.Int(2))))
	l.Close()

	// Simulate a crash after the checkpoint snapshot committed (startSeg =
	// head) but before segment reclamation ran: Open must delete the stale
	// pre-checkpoint segment and replay only from head.
	l2, replayed := openLog(t, fs, head, Config{})
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].Rows[0][0].I != 2 {
		t.Fatalf("want only the post-checkpoint record, got %v", replayed)
	}
	names, _ := fs.ReadDir("wal")
	for _, n := range names {
		if parseSeg(n) >= 0 && parseSeg(n) < head {
			t.Fatalf("stale segment %s not reclaimed", n)
		}
	}
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	for _, policy := range []CrashPolicy{CrashDrop, CrashTear, CrashZero, CrashKeep} {
		t.Run(fmt.Sprintf("policy=%d", policy), func(t *testing.T) {
			fs := NewMemFS()
			l, _ := openLog(t, fs, 0, Config{})
			// Two synced records, then an unsynced tail appended through a
			// raw handle after the log is closed: one intact frame and one
			// torn half-frame that never saw an fsync.
			l.Append(appendRec("m", row(expr.Int(1))))
			l.Append(appendRec("m", row(expr.Int(2))))
			h, _, err := fs.OpenAppend(join("wal", segName(l.Stats().Segment)))
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			// Unsynced tail: one intact frame then half a frame.
			full := appendFrame(nil, appendRec("m", row(expr.Int(3))).Encode())
			torn := appendFrame(nil, appendRec("m", row(expr.Int(4))).Encode())
			h.Write(full)
			h.Write(torn[:len(torn)/2])
			h.Close()

			crashed := fs.Crash(policy)
			l2, replayed := openLog(t, crashed, 0, Config{})
			defer l2.Close()
			// Records 1 and 2 were synced before the crash and must always
			// survive; the unsynced tail may survive only as a prefix of
			// intact records.
			if len(replayed) < 2 {
				t.Fatalf("lost synced records: got %d", len(replayed))
			}
			for i, rec := range replayed {
				if want := int64(i + 1); rec.Rows[0][0].I != want {
					t.Fatalf("replay out of order at %d: got %d", i, rec.Rows[0][0].I)
				}
			}
			if len(replayed) > 3 && policy != CrashKeep {
				t.Fatalf("resurrected torn record under policy %d", policy)
			}
			// After truncation the log must accept appends and replay clean.
			if err := l2.Append(appendRec("m", row(expr.Int(50)))); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			l2.Close()
			l3, replayed3 := openLog(t, crashed, 0, Config{})
			defer l3.Close()
			if len(replayed3) != len(replayed)+1 {
				t.Fatalf("replay after repair: want %d records got %d", len(replayed)+1, len(replayed3))
			}
		})
	}
}

func TestInjectedWriteFailurePoisonsLog(t *testing.T) {
	fs := NewMemFS()
	ffs := NewFaultFS(fs)
	cfg := Config{FS: ffs}
	l, err := Open("wal", 0, cfg, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(appendRec("m", row(expr.Int(1)))); err != nil {
		t.Fatalf("pre-fault append: %v", err)
	}
	w, _ := ffs.Ops()
	ffs.FailWriteAt(w+1, true)
	if err := l.Append(appendRec("m", row(expr.Int(2)))); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	// Poisoned: subsequent appends fail fast with the sticky error.
	if err := l.Append(appendRec("m", row(expr.Int(3)))); !errors.Is(err, ErrInjected) {
		t.Fatalf("want sticky failure, got %v", err)
	}
	if st := l.Stats(); st.Err == "" {
		t.Fatal("stats should carry the sticky error")
	}
	l.Close()

	// Recovery from the crashed image sees only the acked record: the short
	// write's half-frame fails its checksum and is truncated.
	crashed := fs.Crash(CrashKeep)
	l2, replayed := openLog(t, crashed, 0, Config{})
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].Rows[0][0].I != 1 {
		t.Fatalf("want exactly the acked record, got %v", replayed)
	}
	if !l2.Stats().Truncated {
		t.Fatal("recovery should report the torn tail")
	}
}

func TestInjectedSyncFailureNacksWholeGroup(t *testing.T) {
	fs := NewMemFS()
	ffs := NewFaultFS(fs)
	l, err := Open("wal", 0, Config{FS: ffs, BatchSize: 8, MaxWait: 50 * time.Millisecond}, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_, s := ffs.Ops()
	ffs.FailSyncAt(s + 1)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Append(appendRec("m", row(expr.Int(int64(i)))))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("writer %d: want injected sync failure, got %v", i, err)
		}
	}
	l.Close()
	// Nothing was acked, so recovery owing nothing may see nothing — and
	// with the conservative crash policy it must see nothing.
	crashed := fs.Crash(CrashDrop)
	l2, replayed := openLog(t, crashed, 0, Config{})
	defer l2.Close()
	if len(replayed) != 0 {
		t.Fatalf("unacked records resurrected under conservative crash: %v", replayed)
	}
}

// BenchmarkDecodeAppend decodes one 64-row append record of an integer key
// and two floats, the work WAL replay does per logged INSERT.
func BenchmarkDecodeAppend(b *testing.B) {
	rows := make([][]expr.Value, 64)
	for i := range rows {
		rows[i] = []expr.Value{expr.Int(int64(i % 40)), expr.Float(0.12 + float64(i)/1000), expr.Float(1.5 / float64(i+1))}
	}
	payload := (&Record{Type: TypeAppend, Table: "measurements", Rows: rows}).Encode()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}
