package datalaws

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/wal"
)

// engineSig renders the durable state of an engine — every table's full
// contents, partition structure, and the model inventory — into a string two
// engines can be compared by. Model parameters are identified by name,
// table, version and fitted-group count rather than raw floats; the fits are
// deterministic given identical data, and version+groups pin the lineage.
func engineSig(t testing.TB, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	names := e.Catalog.Names()
	sort.Strings(names)
	for _, name := range names {
		tb, ok := e.Catalog.Get(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "table %s:", name)
		v := tb.Chunks()
		rows, err := v.Head(v.Rows())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			for _, x := range row {
				fmt.Fprintf(&sb, " %v", x)
			}
			sb.WriteByte(';')
		}
		sb.WriteByte('\n')
	}
	pnames := e.Catalog.PartitionedNames()
	sort.Strings(pnames)
	for _, name := range pnames {
		pt, ok := e.Catalog.GetPartitioned(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "parted %s by %s %v\n", name, pt.Column(), pt.Ranges())
	}
	for _, m := range e.Models.List() {
		fmt.Fprintf(&sb, "model %s on %s v%d groups %d\n",
			m.Spec.Name, m.Spec.Table, m.Version, m.Quality.GroupsOK)
	}
	return sb.String()
}

// TestOpenEmptyWAL: a durable engine on a fresh directory starts empty, and
// reopening after zero mutations replays an empty log cleanly.
func TestOpenEmptyWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.Catalog.Names()); n != 0 {
		t.Fatalf("fresh engine has %d tables", n)
	}
	st, ok := e.WALStats()
	if !ok {
		t.Fatal("no WAL attached")
	}
	if st.Records != 0 || st.Replayed != 0 {
		t.Fatalf("stats = %+v on fresh log", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st2, _ := e2.WALStats()
	if st2.Replayed != 0 {
		t.Fatalf("replayed %d records from an empty log", st2.Replayed)
	}
	if n := len(e2.Catalog.Names()); n != 0 {
		t.Fatalf("empty log replayed into %d tables", n)
	}
}

// TestOpenRecoveryRoundTrip: every mutation class — CREATE (plain and
// partitioned), INSERT, Append, CopyFrom, FIT, REFIT, DROP MODEL, DROP
// TABLE — replays from the log alone into exactly the pre-crash state.
func TestOpenRecoveryRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)`)
	e.MustExec(`CREATE TABLE p (k BIGINT, x DOUBLE) PARTITION BY RANGE(k) (
		PARTITION lo VALUES LESS THAN (10),
		PARTITION hi VALUES LESS THAN (MAXVALUE))`)
	e.MustExec(`CREATE TABLE doomed (a BIGINT)`)
	e.MustExec(`INSERT INTO doomed VALUES (1)`)
	var rows [][]expr.Value
	for s := 0; s < 3; s++ {
		for i := 1; i <= 6; i++ {
			nu := 0.5 * float64(i)
			rows = append(rows, []expr.Value{
				expr.Int(int64(s)), expr.Float(nu), expr.Float(float64(2+s)*nu + float64(s)),
			})
		}
	}
	if _, err := e.Append("m", rows); err != nil {
		t.Fatal(err)
	}
	i := 0
	if _, err := e.CopyFrom("p", func() ([]expr.Value, error) {
		if i >= 20 {
			return nil, nil
		}
		i++
		return []expr.Value{expr.Int(int64(i)), expr.Float(float64(i) * 1.5)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	e.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	e.MustExec(`FIT MODEL gone ON m AS 'intensity ~ c * nu'
		INPUTS (nu) GROUP BY source START (c = 1)`)
	e.MustExec(`REFIT MODEL law`)
	e.MustExec(`DROP MODEL gone`)
	e.MustExec(`DROP TABLE doomed`)
	want := engineSig(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := engineSig(t, e2); got != want {
		t.Fatalf("recovered state differs:\n--- recovered ---\n%s--- original ---\n%s", got, want)
	}
	st, _ := e2.WALStats()
	if st.Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	// The recovered engine keeps working and logging.
	e2.MustExec(`INSERT INTO m VALUES (9, 1.0, 11.0)`)
}

// TestCloseIdempotentAndSealsMutations: Close flushes the WAL, repeated
// Closes return the first result, and post-Close mutations fail with
// wal.ErrClosed instead of silently going unlogged; queries still work.
func TestCloseIdempotentAndSealsMutations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (a BIGINT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2)`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := e.Exec(`INSERT INTO t VALUES (3)`); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("post-Close insert err = %v, want wal.ErrClosed", err)
	}
	if _, err := e.Append("t", [][]expr.Value{{expr.Int(4)}}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("post-Close append err = %v, want wal.ErrClosed", err)
	}
	// Reads survive Close.
	r, err := e.Exec(`SELECT a FROM t WHERE a = 2`)
	if err != nil || len(r.Rows) != 1 {
		t.Fatalf("post-Close query: %v %v", r, err)
	}
	// And everything acked before Close is durable.
	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tb, ok := e2.Catalog.Get("t")
	if !ok || tb.NumRows() != 2 {
		t.Fatalf("recovered table = %v rows", tb)
	}
}

// TestCheckpointCompactsLog: SaveDir into the WAL directory rotates the
// log, records the start segment in the snapshot, reclaims old segments,
// and a subsequent Open replays only post-checkpoint records.
func TestCheckpointCompactsLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (a BIGINT)`)
	for i := 0; i < 5; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := e.WALStats()
	if st.Segment == 0 {
		t.Fatal("checkpoint did not rotate the log")
	}
	if st.Segments != 1 {
		t.Fatalf("segments = %d after reclaim, want 1", st.Segments)
	}
	// Post-checkpoint mutations land in the new segment.
	e.MustExec(`INSERT INTO t VALUES (100)`)
	want := engineSig(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the post-checkpoint insert replays; the snapshot carries the rest.
	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st2, _ := e2.WALStats()
	if st2.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1 (post-checkpoint insert only)", st2.Replayed)
	}
	if got := engineSig(t, e2); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
}

// TestReplayWALReferencingDroppedTable: replay of a log whose tail appends
// to a table dropped earlier (or never created) warns and converges instead
// of refusing recovery.
func TestReplayWALReferencingDroppedTable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (a BIGINT)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)
	e.MustExec(`DROP TABLE t`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant a record referencing a table that does not exist at its log
	// position — the kind of debris a racing drop can leave. The engine
	// pre-checks existence, so craft it through the wal package directly.
	l, err := wal.Open(dir, 0, wal.Config{}, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&wal.Record{
		Type: wal.TypeAppend, Table: "ghost",
		Rows: [][]expr.Value{{expr.Int(7)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatalf("recovery refused a log with a dangling append: %v", err)
	}
	defer e2.Close()
	if _, ok := e2.Catalog.Get("t"); ok {
		t.Fatal("dropped table resurrected")
	}
	if _, ok := e2.Catalog.Get("ghost"); ok {
		t.Fatal("dangling append materialized a table")
	}
	st, _ := e2.WALStats()
	if st.Replayed != 4 {
		t.Fatalf("replayed = %d, want 4 (create, insert, drop, dangling append)", st.Replayed)
	}
}

// TestReplayPartitionManifestChanged: the snapshot holds one partition
// layout, the log re-partitions the table after the checkpoint (drop +
// recreate with different bounds) and appends into the new layout. Replay
// must route those appends by the NEW manifest, not the snapshot's.
func TestReplayPartitionManifestChanged(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE m (k BIGINT, x DOUBLE) PARTITION BY RANGE(k) (
		PARTITION lo VALUES LESS THAN (100),
		PARTITION hi VALUES LESS THAN (MAXVALUE))`)
	e.MustExec(`INSERT INTO m VALUES (50, 1.0), (500, 2.0)`)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Between checkpoint and crash: re-partition with a different boundary
	// and three legs, then append rows that the OLD layout would route
	// differently (150 and 250 were both "hi" before; now "lo" and "mid").
	e.MustExec(`DROP TABLE m`)
	e.MustExec(`CREATE TABLE m (k BIGINT, x DOUBLE) PARTITION BY RANGE(k) (
		PARTITION lo VALUES LESS THAN (200),
		PARTITION mid VALUES LESS THAN (400),
		PARTITION hi VALUES LESS THAN (MAXVALUE))`)
	e.MustExec(`INSERT INTO m VALUES (150, 3.0), (250, 3.5), (300, 4.0), (900, 5.0)`)
	want := engineSig(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := engineSig(t, e2); got != want {
		t.Fatalf("recovered state differs:\n--- recovered ---\n%s--- original ---\n%s", got, want)
	}
	pt, ok := e2.Catalog.GetPartitioned("m")
	if !ok {
		t.Fatal("partitioned table missing after recovery")
	}
	if pt.NumParts() != 3 {
		t.Fatalf("parts = %d, want the re-partitioned 3", pt.NumParts())
	}
	if got := pt.Part(0).NumRows(); got != 1 {
		t.Fatalf("lo partition rows = %d, want 1 (150)", got)
	}
	if got := pt.Part(1).NumRows(); got != 2 {
		t.Fatalf("mid partition rows = %d, want 2 (250 and 300)", got)
	}
}

// TestTornTailRecoveryEngine: a crash image with a torn last record (built
// on the wal MemFS) recovers to exactly the acked prefix.
func TestTornTailRecoveryEngine(t *testing.T) {
	fs := wal.NewMemFS()
	dir := "memdb"
	e, err := Open(dir, wal.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (a BIGINT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2)`)
	want := engineSig(t, e)
	// Crash without Close: CrashTear keeps synced bytes and tears nothing
	// here (all groups were fsynced before ack), so recovery must see every
	// acked record.
	img := fs.Crash(wal.CrashTear)

	e2, err := Open(dir, wal.Config{FS: img})
	if err != nil {
		t.Fatal(err)
	}
	if got := engineSig(t, e2); got != want {
		t.Fatalf("crash recovery lost acked state:\n%s\nvs\n%s", got, want)
	}
	_ = e.Close()
	_ = e2.Close()
	_ = os.RemoveAll(dir) // in case a snapshot path leaked onto the real FS
}

// TestLawWhereReadsBack: a captured law's WHERE is persisted as text and
// read back by the formula grammar on every snapshot load and WAL replay.
// A column named like an SQL-unreserved word ("like") must read back as the
// name it was fitted with: the snapshot loads and answers the same APPROX
// point, and the replayed log keeps the model.
func TestLawWhereReadsBack(t *testing.T) {
	const fit = `FIT MODEL m ON t AS 'y ~ a * x + b' INPUTS (x) GROUP BY g WHERE like >= 0`
	fill := func(e *Engine) {
		t.Helper()
		e.MustExec(`CREATE TABLE t (g BIGINT, x DOUBLE, y DOUBLE, like DOUBLE)`)
		var rows [][]expr.Value
		for g := 0; g < 3; g++ {
			for i := 0; i < 8; i++ {
				x := float64(i)
				rows = append(rows, []expr.Value{expr.Int(int64(g)), expr.Float(x),
					expr.Float(float64(g+2)*x + 1 + 0.01*float64(i%3)), expr.Float(float64(i%4) - 1)})
			}
		}
		if _, err := e.Append("t", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec(fit)
	}

	e := NewEngine()
	fill(e)
	want, err := e.ApproxPoint("m", 1, []float64{2.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir()
	if err := e.SaveDir(snap); err != nil {
		t.Fatal(err)
	}
	loaded := NewEngine()
	if err := loaded.LoadDir(snap); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	got, err := loaded.ApproxPoint("m", 1, []float64{2.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Lo != want.Lo || got.Hi != want.Hi {
		t.Fatalf("loaded snapshot answers %+v, want %+v", got, want)
	}

	dir := filepath.Join(t.TempDir(), "db")
	d, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fill(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if show := d.MustExec("SHOW MODELS"); len(show.Rows) != 1 || show.Rows[0][0].S != "m" {
		t.Fatalf("models after replay = %v", show.Rows)
	}
}
