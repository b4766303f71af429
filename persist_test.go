package datalaws

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/wal"
)

func TestSaveLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, _ := loadLOFAR(t, 15, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	before := e.MustExec("APPROX SELECT intensity FROM measurements WHERE source = 3 AND nu = 0.16")

	if err := e.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine()
	if err := e2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	// Tables restored.
	tb, ok := e2.Catalog.Get("measurements")
	if !ok {
		t.Fatal("table missing after load")
	}
	orig, _ := e.Catalog.Get("measurements")
	if tb.NumRows() != orig.NumRows() {
		t.Fatalf("rows %d vs %d", tb.NumRows(), orig.NumRows())
	}
	// Models restored and usable: the same APPROX query works and agrees.
	after := e2.MustExec("APPROX SELECT intensity FROM measurements WHERE source = 3 AND nu = 0.16")
	if len(after.Rows) != 1 {
		t.Fatalf("rows = %v", after.Rows)
	}
	if math.Abs(after.Rows[0][0].F-before.Rows[0][0].F) > 1e-9 {
		t.Fatalf("approx answer drifted: %v vs %v", after.Rows[0][0], before.Rows[0][0])
	}
	// SHOW MODELS reports the loaded model.
	show := e2.MustExec("SHOW MODELS")
	if len(show.Rows) != 1 || show.Rows[0][0].S != "spectra" {
		t.Fatalf("models = %v", show.Rows)
	}
}

// TestSaveDirNoStagingLeftovers: a successful save must leave only the
// final files — the staging directory is gone.
func TestSaveDirNoStagingLeftovers(t *testing.T) {
	dir := t.TempDir()
	e, _ := loadLOFAR(t, 5, 20)
	if err := e.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), ".dlsave-") {
			t.Fatalf("staging leftover %s", ent.Name())
		}
	}
}

// currentSnapDir resolves the live snapshot directory a save published —
// where tests plant corruption that LoadDir must detect.
func currentSnapDir(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, strings.TrimSpace(string(b)))
}

// obstructNextSnap plants a regular file where the next snapshot directory
// must land, so the commit rename fails.
func obstructNextSnap(t *testing.T, dir string) string {
	t.Helper()
	id, err := nextSnapID(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, snapDirName(id))
	if err := os.WriteFile(p, []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSaveDirCrashSafe is the satellite bugfix: a failing save must leave
// the previous good state loadable, because the snapshot publishes through
// a single directory rename plus a CURRENT pointer swap.
func TestSaveDirCrashSafe(t *testing.T) {
	dir := t.TempDir()
	e1, _ := loadLOFAR(t, 5, 20)
	e1.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	// A second engine saves while the next snapshot name is obstructed by a
	// stray file: the commit rename must fail with ErrObstructed, and the
	// published snapshot may not be harmed.
	e2 := NewEngine()
	e2.MustExec("CREATE TABLE blocked (a BIGINT)")
	e2.MustExec("INSERT INTO blocked VALUES (1)")
	obst := obstructNextSnap(t, dir)
	err := e2.SaveDir(dir)
	if err == nil {
		t.Fatal("save over an obstructed snapshot name should fail")
	}
	if !errors.Is(err, ErrObstructed) {
		t.Fatalf("err = %v, want ErrObstructed", err)
	}

	// The previous good state survives the failed save intact — even with
	// the obstruction still in place.
	e3 := NewEngine()
	if err := e3.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	tb, ok := e3.Catalog.Get("measurements")
	if !ok {
		t.Fatal("table lost after failed save")
	}
	orig, _ := e1.Catalog.Get("measurements")
	if tb.NumRows() != orig.NumRows() {
		t.Fatalf("rows %d vs %d", tb.NumRows(), orig.NumRows())
	}
	if _, ok := e3.Models.Get("spectra"); !ok {
		t.Fatal("model lost after failed save")
	}
	if _, ok := e3.Catalog.Get("blocked"); ok {
		t.Fatal("failed save published its table")
	}

	// Clearing the obstruction lets the save through.
	if err := os.Remove(obst); err != nil {
		t.Fatal(err)
	}
	if err := e2.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	e4 := NewEngine()
	if err := e4.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := e4.Catalog.Get("blocked"); !ok {
		t.Fatal("retried save not published")
	}
}

// TestLoadDirAtomicOnCorruptModels is the satellite bugfix: an error
// mid-load must not leave a partial catalog behind.
func TestLoadDirAtomicOnCorruptModels(t *testing.T) {
	dir := t.TempDir()
	e1, _ := loadLOFAR(t, 5, 20)
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(currentSnapDir(t, dir), "models.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	if err := e2.LoadDir(dir); err == nil {
		t.Fatal("corrupt models.json should fail the load")
	}
	if names := e2.Catalog.Names(); len(names) != 0 {
		t.Fatalf("partial catalog after failed load: %v", names)
	}
	if models := e2.Models.List(); len(models) != 0 {
		t.Fatalf("partial model store after failed load: %v", models)
	}
}

// TestLoadDirAtomicOnCorruptTable: a truncated table file fails the load
// before anything is committed.
func TestLoadDirAtomicOnCorruptTable(t *testing.T) {
	dir := t.TempDir()
	e1, _ := loadLOFAR(t, 5, 20)
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// "zzz" sorts after "measurements", so a naive incremental load would
	// have committed the good table before hitting the corrupt one.
	if err := os.WriteFile(filepath.Join(currentSnapDir(t, dir), "zzz.dltab"), []byte("not a table"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	if err := e2.LoadDir(dir); err == nil {
		t.Fatal("corrupt table file should fail the load")
	}
	if names := e2.Catalog.Names(); len(names) != 0 {
		t.Fatalf("partial catalog after failed load: %v", names)
	}
}

// TestLoadDirRollbackOnCollision: colliding table names roll back every
// table added by the failed load.
func TestLoadDirRollbackOnCollision(t *testing.T) {
	dir := t.TempDir()
	e1, _ := loadLOFAR(t, 5, 20)
	e1.MustExec("CREATE TABLE extra (a BIGINT)")
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	e2.MustExec("CREATE TABLE measurements (a BIGINT)")
	if err := e2.LoadDir(dir); err == nil {
		t.Fatal("collision should fail the load")
	}
	if _, ok := e2.Catalog.Get("extra"); ok {
		t.Fatal("rollback left a loaded table behind")
	}
	// The pre-existing table is untouched.
	if tb, ok := e2.Catalog.Get("measurements"); !ok || tb.Schema().Index("a") != 0 {
		t.Fatal("pre-existing table damaged by failed load")
	}
}

func TestLoadDirMissing(t *testing.T) {
	e := NewEngine()
	if err := e.LoadDir("/nonexistent/path"); err == nil {
		t.Fatal("want error for missing directory")
	}
}

func TestLoadDirEmptyDirNoModels(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine()
	if err := e.LoadDir(dir); err != nil {
		t.Fatalf("empty dir should load cleanly: %v", err)
	}
}

// TestFlatLayoutRefused: a save in the flat layout of builds before
// snapshots (.dltab files beside models.json, no CURRENT) is refused by
// LoadDir and by Open, which must not attach a log over it as if it were an
// empty engine.
func TestFlatLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	e1, _ := loadLOFAR(t, 5, 20)
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	snap := currentSnapDir(t, dir)
	ents, err := os.ReadDir(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if err := os.Rename(filepath.Join(snap, ent.Name()), filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine()
	if err := e2.LoadDir(dir); err == nil || !strings.Contains(err.Error(), "flat save") {
		t.Fatalf("LoadDir of a flat save: %v, want an error naming the flat layout", err)
	}
	if names := e2.Catalog.Names(); len(names) != 0 {
		t.Fatalf("refused load left tables behind: %v", names)
	}
	if e3, err := Open(dir, wal.Config{}); err == nil {
		_ = e3.Close()
		t.Fatal("Open attached a log over a flat save")
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*")); len(segs) != 0 {
		t.Fatalf("refused Open left log segments: %v", segs)
	}
}

func TestExplainExact(t *testing.T) {
	e, _ := loadLOFAR(t, 10, 40)
	res := e.MustExec("EXPLAIN SELECT source, avg(intensity) FROM measurements WHERE nu > 0.1 GROUP BY source ORDER BY source LIMIT 3")
	for _, want := range []string{"exact plan", "VecMorselScan measurements", "VecFilter", "VecHashAggregate", "VecSort keys=1 limit=3"} {
		if !strings.Contains(res.Info, want) {
			t.Fatalf("plan missing %q:\n%s", want, res.Info)
		}
	}
}

func TestExplainApprox(t *testing.T) {
	e, _ := loadLOFAR(t, 10, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	res := e.MustExec("EXPLAIN APPROX SELECT avg(intensity) FROM measurements WHERE nu = 0.12")
	for _, want := range []string{"approximate plan", "ModelScan", "spectra", "zero IO"} {
		if !strings.Contains(res.Info, want) {
			t.Fatalf("plan missing %q:\n%s", want, res.Info)
		}
	}
	if res.Model != "spectra" {
		t.Fatalf("model = %q", res.Model)
	}
}

func TestExplainErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Exec("EXPLAIN CREATE TABLE t (a BIGINT)"); err == nil {
		t.Fatal("want error for EXPLAIN of DDL")
	}
}

// TestConcurrentQueriesAndAppends exercises the table's reader/writer
// locking: many goroutines query while one appends.
func TestConcurrentQueriesAndAppends(t *testing.T) {
	e, _ := loadLOFAR(t, 20, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	// This test exercises locking, not trust policy: the writer will blow
	// far past the staleness bar, so disable staleness revocation.
	e.AQP.Policy.MaxStalenessFrac = 0
	tb, _ := e.Catalog.Get("measurements")

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})

	// Writer: keeps appending rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if err := tb.AppendRow([]expr.Value{
				expr.Int(int64(i%20 + 1)), expr.Float(0.15), expr.Float(2.0),
			}); err != nil {
				errs <- err
				return
			}
		}
		close(stop)
	}()

	// Readers: exact and approximate queries in flight.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Exec("SELECT count(*), avg(intensity) FROM measurements WHERE nu = 0.15"); err != nil {
					errs <- err
					return
				}
				if _, err := e.Exec("APPROX SELECT intensity FROM measurements WHERE source = 5 AND nu = 0.12"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
