package datalaws

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datalaws/internal/table"
)

// TestPartitionedSaveLoadRoundTrip: a partitioned table and its per-
// partition model family round-trip through SaveDir/LoadDir, preserving
// partition bounds, routing, per-partition model versions, and answers.
func TestPartitionedSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := partedEngine(t, 4, 0.01, 11)
	fitParted(t, e1)
	// Refit one partition so versions differ across the family.
	if _, err := e1.Models.Refit("law#p2", mustChild(t, e1, "m", "p2")); err != nil {
		t.Fatal(err)
	}
	before := e1.MustExec(`APPROX SELECT intensity FROM m WHERE source = 250 AND nu = 1.5`)

	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	if err := e2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}

	pt, ok := e2.Catalog.GetPartitioned("m")
	if !ok {
		t.Fatal("partitioned table missing after load")
	}
	orig, _ := e1.Catalog.GetPartitioned("m")
	if pt.NumRows() != orig.NumRows() {
		t.Fatalf("rows %d vs %d", pt.NumRows(), orig.NumRows())
	}
	// Partition bounds survive exactly.
	or, nr := orig.Ranges(), pt.Ranges()
	if len(or) != len(nr) {
		t.Fatalf("ranges %d vs %d", len(nr), len(or))
	}
	for i := range or {
		if or[i] != nr[i] {
			t.Fatalf("range %d: %+v vs %+v", i, nr[i], or[i])
		}
	}
	if pt.Column() != orig.Column() {
		t.Fatalf("column %q vs %q", pt.Column(), orig.Column())
	}
	// Per-partition model versions survive (p2 was refit to v2).
	fam := e2.Models.Family("law")
	if len(fam) != 4 {
		t.Fatalf("family = %d members", len(fam))
	}
	for _, m := range fam {
		want := 1
		if m.Spec.Name == "law#p2" {
			want = 2
		}
		if m.Version != want {
			t.Errorf("%s version = %d, want %d", m.Spec.Name, m.Version, want)
		}
	}
	// The loaded engine routes appends and answers point queries identically.
	after := e2.MustExec(`APPROX SELECT intensity FROM m WHERE source = 250 AND nu = 1.5`)
	if after.PartitionsPruned != 3 {
		t.Fatalf("pruned = %d, want 3", after.PartitionsPruned)
	}
	if math.Abs(after.Rows[0][0].F-before.Rows[0][0].F) > 1e-9 {
		t.Fatalf("approx answer drifted: %v vs %v", after.Rows[0], before.Rows[0])
	}
	eng2Rows := pt.Part(0).NumRows()
	if _, err := e2.Exec(`INSERT INTO m VALUES (5, 1.0, 2.0)`); err != nil {
		t.Fatal(err)
	}
	if got := pt.Part(0).NumRows(); got != eng2Rows+1 {
		t.Fatalf("append after load routed wrong: p0 %d -> %d", eng2Rows, got)
	}
}

func mustChild(t *testing.T, e *Engine, tbl, part string) *table.Table {
	t.Helper()
	child, ok := e.Catalog.Get(table.PartitionTableName(tbl, part))
	if !ok {
		t.Fatalf("child %s#%s missing", tbl, part)
	}
	return child
}

// TestPartitionedSaveCrashSafe: a save that dies at commit (the snapshot
// rename is obstructed) leaves the previous on-disk state loadable and
// consistent — the new snapshot never partially replaces the published one.
func TestPartitionedSaveCrashSafe(t *testing.T) {
	dir := t.TempDir()
	e1 := partedEngine(t, 4, 0.01, 12)
	fitParted(t, e1)
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	orig, _ := e1.Catalog.GetPartitioned("m")
	savedRows := orig.NumRows()

	// Grow the table, then obstruct the next snapshot name so the commit
	// rename fails before anything publishes.
	if _, err := e1.Exec(`INSERT INTO m VALUES (150, 1.0, 2.0)`); err != nil {
		t.Fatal(err)
	}
	obstructNextSnap(t, dir)
	err := e1.SaveDir(dir)
	if err == nil {
		t.Fatal("save over an obstructed snapshot name should fail")
	}
	if !errors.Is(err, ErrObstructed) {
		t.Fatalf("err = %v, want ErrObstructed", err)
	}

	// The previously published snapshot still loads whole: all four
	// partition children, the family, and the pre-growth row count.
	e2 := NewEngine()
	if err := e2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	pt, ok := e2.Catalog.GetPartitioned("m")
	if !ok {
		t.Fatal("partitioned table lost after failed save")
	}
	if pt.NumRows() != savedRows {
		t.Fatalf("rows = %d, want pre-growth %d", pt.NumRows(), savedRows)
	}
	if fam := e2.Models.Family("law"); len(fam) != 4 {
		t.Fatalf("family = %d members after failed save", len(fam))
	}

	// Separately: a snapshot missing one partition child (manifest and data
	// out of step) must be rejected atomically, not resurrected as a
	// 3-legged partitioned table.
	if err := os.Remove(filepath.Join(currentSnapDir(t, dir), "m#p3.dltab")); err != nil {
		t.Fatal(err)
	}
	e3 := NewEngine()
	if err := e3.LoadDir(dir); err == nil {
		t.Fatal("load with a missing partition child should fail")
	}
	if len(e3.Catalog.Names()) != 0 || len(e3.Catalog.PartitionedNames()) != 0 {
		t.Fatalf("failed load left tables behind: %v %v", e3.Catalog.Names(), e3.Catalog.PartitionedNames())
	}
	if len(e3.Models.List()) != 0 {
		t.Fatalf("failed load left models behind")
	}
}

// TestPartitionedLoadRollbackOnCollision: loading into an engine that
// already has one of the saved names rolls everything back — plain tables,
// partitioned parents and children alike.
func TestPartitionedLoadRollbackOnCollision(t *testing.T) {
	dir := t.TempDir()
	e1 := partedEngine(t, 4, 0.01, 13)
	e1.MustExec(`CREATE TABLE plain (a BIGINT)`)
	if err := e1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	e2.MustExec(`CREATE TABLE m (other DOUBLE)`) // collides with the parent
	if err := e2.LoadDir(dir); err == nil {
		t.Fatal("load over a colliding name should fail")
	}
	if _, ok := e2.Catalog.Get("plain"); ok {
		t.Fatal("rollback left a plain table behind")
	}
	if _, ok := e2.Catalog.GetPartitioned("m"); ok {
		t.Fatal("rollback left the partitioned parent behind")
	}
	if _, ok := e2.Catalog.Get("m#p0"); ok {
		t.Fatal("rollback left a partition child behind")
	}
}

// TestPartitionedPlanCacheInvalidation: cached plans cannot survive a DROP
// TABLE / re-CREATE of a partitioned table, nor a LoadDir — the catalog
// epoch moves and the plan cache re-prepares.
func TestPartitionedPlanCacheInvalidation(t *testing.T) {
	dir := t.TempDir()
	e := partedEngine(t, 4, 0.01, 14)
	fitParted(t, e)
	if err := e.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	q := `APPROX SELECT intensity FROM m WHERE source = 250 AND nu = 1.5`
	first := e.MustExec(q) // populates the plan cache
	if first.Model == "" {
		t.Fatal("expected a model-backed answer")
	}

	// DROP and re-create the table unpartitioned and unmodeled: the cached
	// approximate plan must not survive; the same text now errors (no model,
	// no fallback configured).
	e.MustExec(`DROP TABLE m`)
	e.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)`)
	if _, err := e.Exec(q); err == nil {
		t.Fatal("cached plan survived DROP TABLE/re-CREATE")
	}

	// Restore via LoadDir into the same engine after dropping the empty
	// replacement: the epoch moves again and the re-prepared plan answers.
	e.MustExec(`DROP TABLE m`)
	if err := e.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsPruned != 3 {
		t.Fatalf("pruned = %d, want 3", res.PartitionsPruned)
	}
	if !strings.Contains(res.Model, "law#") {
		t.Fatalf("model = %q", res.Model)
	}
	// Prepared statements revalidate per Bind too.
	stmt, err := e.Prepare(`APPROX SELECT intensity FROM m WHERE source = ? AND nu = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query(context.Background(), 250, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
}

// TestPartitionManifestMustMatchRows: a snapshot whose partitions.json was
// edited after the save so that its ranges no longer admit the rows of
// their children is refused at load. Loaded, such a manifest prunes
// statements to the wrong child: SELECT count(*) FROM m WHERE source = 150
// answered 0 instead of 1. Rows in a child's tail and rows in its sealed
// chunks (judged by zone map first) are both checked, and the untouched
// manifest still loads.
func TestPartitionManifestMustMatchRows(t *testing.T) {
	for _, chunkRows := range []int{table.DefaultChunkRows, 1} {
		old := table.DefaultChunkRows
		table.DefaultChunkRows = chunkRows
		dir := t.TempDir()
		e := NewEngine()
		e.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE) PARTITION BY RANGE(source) (
			PARTITION p0 VALUES LESS THAN (100),
			PARTITION p1 VALUES LESS THAN (200),
			PARTITION rest VALUES LESS THAN (MAXVALUE))`)
		table.DefaultChunkRows = old
		e.MustExec(`INSERT INTO m VALUES (1, 0.5), (150, 1.5), (250, 2.5)`)
		if chunkRows == 1 {
			if cv := mustChild(t, e, "m", "p1").Chunks(); cv.NumSealed() != 1 {
				t.Fatalf("p1 has %d sealed chunks, want 1", cv.NumSealed())
			}
		}
		if err := e.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		snap, ok, err := readCurrent(dir)
		if err != nil || !ok {
			t.Fatalf("no snapshot: %v", err)
		}
		manifest := filepath.Join(snap, "partitions.json")
		saved, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.NewReplacer(`"upper": 100`, `"upper": 1000`, `"upper": 200`, `"upper": 2000`).Replace(string(saved))
		if edited == string(saved) {
			t.Fatalf("manifest has no bounds to edit: %s", saved)
		}
		if err := os.WriteFile(manifest, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := NewEngine()
		err = loaded.LoadDir(dir)
		if err == nil {
			res := loaded.MustExec(`SELECT count(*) FROM m WHERE source = 150`)
			t.Fatalf("chunk rows %d: a manifest whose ranges exclude its rows loaded; count(source = 150) = %v", chunkRows, res.Rows)
		}
		if !strings.Contains(err.Error(), `partition "p1" of "m"`) || !strings.Contains(err.Error(), "outside the partition's range") {
			t.Fatalf("chunk rows %d: error %q does not name the partition and the range", chunkRows, err)
		}
		if n := len(loaded.Catalog.Names()); n != 0 {
			t.Fatalf("a refused load left %d tables behind", n)
		}
		if err := os.WriteFile(manifest, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := NewEngine().LoadDir(dir); err != nil {
			t.Fatalf("chunk rows %d: the saved manifest does not load: %v", chunkRows, err)
		}
	}
}
