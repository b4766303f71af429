package datalaws

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/refit"
)

// partedEngine builds an engine with a 16-partition table "m" partitioned by
// the group column: source s lives in partition s/100, and within each group
// intensity follows an exact per-group linear law over a small nu grid, plus
// noise of scale noise. Sources run 0..nparts*100-1 stepping 25 (4 groups
// per partition), nu over {0.5, 1.0, ..., 4.0}.
func partedEngine(t testing.TB, nparts int, noise float64, seed int64) *Engine {
	t.Helper()
	eng := NewEngine()
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE) PARTITION BY RANGE(source) (")
	for p := 0; p < nparts-1; p++ {
		fmt.Fprintf(&sb, "PARTITION p%d VALUES LESS THAN (%d), ", p, (p+1)*100)
	}
	fmt.Fprintf(&sb, "PARTITION p%d VALUES LESS THAN (MAXVALUE))", nparts-1)
	eng.MustExec(sb.String())

	rng := rand.New(rand.NewSource(seed))
	var rows [][]expr.Value
	for s := 0; s < nparts*100; s += 25 {
		a := 2 + float64(s%7)
		b := float64(s % 13)
		for i := 1; i <= 8; i++ {
			nu := 0.5 * float64(i)
			y := a*nu + b + noise*rng.NormFloat64()
			rows = append(rows, []expr.Value{expr.Int(int64(s)), expr.Float(nu), expr.Float(y)})
		}
	}
	if _, err := eng.Append("m", rows); err != nil {
		t.Fatal(err)
	}
	return eng
}

func fitParted(t testing.TB, eng *Engine) {
	t.Helper()
	if _, err := eng.Exec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedCreateInsertSelect(t *testing.T) {
	eng := NewEngine()
	eng.MustExec(`CREATE TABLE t (k BIGINT, x DOUBLE) PARTITION BY RANGE(k) (
		PARTITION lo VALUES LESS THAN (10),
		PARTITION hi VALUES LESS THAN (MAXVALUE))`)
	eng.MustExec(`INSERT INTO t VALUES (1, 1.5), (5, 2.5), (15, 3.5), (100, 4.5)`)

	res := eng.MustExec(`SELECT count(*) FROM t`)
	if got := res.Rows[0][0].I; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	res = eng.MustExec(`SELECT sum(x) FROM t WHERE k < 10`)
	if got := res.Rows[0][0].F; got != 4.0 {
		t.Fatalf("sum below 10 = %g, want 4", got)
	}
	// Exact EXPLAIN renders pruning.
	res = eng.MustExec(`EXPLAIN SELECT x FROM t WHERE k = 15`)
	if !strings.Contains(res.Info, "partitions: 1/2 pruned") {
		t.Fatalf("EXPLAIN missing pruning info:\n%s", res.Info)
	}
	// Inserting a NULL partition key fails without landing anything.
	if _, err := eng.Exec(`INSERT INTO t VALUES (NULL, 9.9)`); err == nil {
		t.Fatal("NULL partition key insert should fail")
	}
	if got := eng.MustExec(`SELECT count(*) FROM t`).Rows[0][0].I; got != 4 {
		t.Fatalf("count after failed insert = %d, want 4", got)
	}
}

func TestPartitionedApproxPointPrunes(t *testing.T) {
	eng := partedEngine(t, 16, 0.01, 1)
	fitParted(t, eng)

	// The acceptance query: a selective point APPROX query on a 16-partition
	// table must probe exactly one partition's model.
	rows, err := eng.Query(context.Background(), `APPROX SELECT intensity FROM m WHERE source = 250 AND nu = 1.5`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Partitions != 16 || rows.PartitionsPruned != 15 {
		t.Fatalf("partitions = %d pruned = %d, want 16/15", rows.Partitions, rows.PartitionsPruned)
	}
	if !strings.Contains(rows.Model, "law#p2") {
		t.Fatalf("model = %q, want partition p2's family member", rows.Model)
	}
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	var y float64
	if err := rows.Scan(&y); err != nil {
		t.Fatal(err)
	}
	// source 250: a = 2 + 250%7 = 2+5 = 7, b = 250%13 = 3 → y(1.5) ≈ 13.5.
	want := 7*1.5 + 3.0
	if y < want-0.5 || y > want+0.5 {
		t.Fatalf("approx intensity = %g, want ≈ %g", y, want)
	}

	// EXPLAIN APPROX renders the pruning line.
	res := eng.MustExec(`EXPLAIN APPROX SELECT intensity FROM m WHERE source = 250 AND nu = 1.5`)
	if !strings.Contains(res.Info, "partitions: 15/16 pruned") {
		t.Fatalf("EXPLAIN APPROX missing pruning info:\n%s", res.Info)
	}

	// A range predicate over two partitions keeps exactly those, and runs
	// their model scans as one pipeline.
	res = eng.MustExec(`APPROX SELECT avg(intensity) FROM m WHERE source >= 100 AND source < 300`)
	if res.Partitions != 16 || res.PartitionsPruned != 14 {
		t.Fatalf("range query partitions = %d pruned = %d, want 16/14", res.Partitions, res.PartitionsPruned)
	}
	if err := exec.OnePipeline(eng.MustExec(`EXPLAIN APPROX SELECT avg(intensity) FROM m WHERE source >= 100 AND source < 300`).Info); err != nil {
		t.Fatal(err)
	}

	// An unselective aggregate touches every partition's model and agrees
	// with the exact answer on a well-fitted fixture.
	approx := eng.MustExec(`APPROX SELECT avg(intensity) FROM m`)
	if approx.PartitionsPruned != 0 {
		t.Fatalf("unselective query pruned %d partitions", approx.PartitionsPruned)
	}
	exact := eng.MustExec(`SELECT avg(intensity) FROM m`)
	a, x := approx.Rows[0][0].F, exact.Rows[0][0].F
	if a < x-0.5 || a > x+0.5 {
		t.Fatalf("approx avg %g vs exact %g", a, x)
	}
}

func TestPartitionedFitProducesFamily(t *testing.T) {
	eng := partedEngine(t, 4, 0.01, 2)
	fitParted(t, eng)
	fam := eng.Models.Family("law")
	if len(fam) != 4 {
		t.Fatalf("family size = %d, want 4", len(fam))
	}
	for _, m := range fam {
		if m.Quality.MedianR2 < 0.99 {
			t.Errorf("%s median R² = %g", m.Spec.Name, m.Quality.MedianR2)
		}
		if !strings.HasPrefix(m.Spec.Table, "m#") {
			t.Errorf("%s fitted on %q, want a partition child", m.Spec.Name, m.Spec.Table)
		}
	}
	// The family occupies its base name in both directions: a plain model
	// named "law" cannot be captured while the family exists (DROP MODEL law
	// drops the family, so sharing the base would make that drop destroy an
	// unrelated model).
	eng.MustExec(`CREATE TABLE other (nu DOUBLE, intensity DOUBLE)`)
	eng.MustExec(`INSERT INTO other VALUES (1, 2), (2, 4), (3, 6), (4, 8)`)
	if _, err := eng.Exec(`FIT MODEL law ON other AS 'intensity ~ a * nu' INPUTS (nu) START (a = 1)`); err == nil {
		t.Fatal("plain capture over a family base name should fail")
	}
	// DROP MODEL drops the whole family.
	eng.MustExec(`DROP MODEL law`)
	if fam := eng.Models.Family("law"); len(fam) != 0 {
		t.Fatalf("family survived DROP MODEL: %d members", len(fam))
	}
}

func TestPartitionedPerPartitionRefit(t *testing.T) {
	eng := partedEngine(t, 4, 0.01, 3)
	fitParted(t, eng)

	r := refit.New(eng.Catalog, eng.Models, refit.Options{
		Drift: modelstore.DriftConfig{MinRows: 8, MaxRMSZ: 2, MaxGrowthFrac: -1},
	})
	defer r.Close()
	eng.refitMu.Lock()
	eng.refitter = r
	eng.refitMu.Unlock()

	v0 := map[string]int{}
	for _, m := range eng.Models.Family("law") {
		v0[m.Spec.Name] = m.Version
	}

	// Drift one partition hard: source 50 (partition p0) switches law.
	var rows [][]expr.Value
	for i := 1; i <= 64; i++ {
		nu := 0.5 * float64(i%8+1)
		rows = append(rows, []expr.Value{expr.Int(50), expr.Float(nu), expr.Float(1000 + 100*nu)})
	}
	if _, err := eng.Append("m", rows); err != nil {
		t.Fatal(err)
	}
	events := r.Sweep()
	refitted := map[string]bool{}
	for _, ev := range events {
		if ev.Err == nil {
			refitted[ev.Model] = true
		}
	}
	if !refitted["law#p0"] {
		t.Fatalf("p0's model was not refitted; events: %+v", events)
	}
	if len(refitted) != 1 {
		t.Fatalf("refit was not partition-local: %v", refitted)
	}
	for _, m := range eng.Models.Family("law") {
		want := v0[m.Spec.Name]
		if m.Spec.Name == "law#p0" {
			want++
		}
		if m.Version != want {
			t.Errorf("%s version = %d, want %d", m.Spec.Name, m.Version, want)
		}
	}
}

func TestPartitionedRefitStatement(t *testing.T) {
	eng := partedEngine(t, 4, 0.01, 4)
	fitParted(t, eng)
	res := eng.MustExec(`REFIT MODEL law`)
	if !strings.Contains(res.Info, "refitted on 4/4 partitions") {
		t.Fatalf("refit info: %s", res.Info)
	}
	for _, m := range eng.Models.Family("law") {
		if m.Version != 2 {
			t.Errorf("%s version = %d, want 2", m.Spec.Name, m.Version)
		}
	}
}

func TestPartitionedDropTableCascades(t *testing.T) {
	eng := partedEngine(t, 4, 0.01, 5)
	fitParted(t, eng)
	res := eng.MustExec(`DROP TABLE m`)
	if !strings.Contains(res.Info, "4 partitions") {
		t.Fatalf("drop info: %s", res.Info)
	}
	if len(eng.Models.List()) != 0 {
		t.Fatalf("models survived DROP TABLE: %d", len(eng.Models.List()))
	}
	if names := eng.Catalog.Names(); len(names) != 0 {
		t.Fatalf("tables survived DROP TABLE: %v", names)
	}
	if _, err := eng.Exec(`SELECT count(*) FROM m`); err == nil {
		t.Fatal("query after DROP TABLE should fail")
	}
}

func TestPartitionedUnmodeledPartitionAnswersRaw(t *testing.T) {
	eng := partedEngine(t, 4, 0.01, 6)
	fitParted(t, eng)
	// Drop one partition's model: queries over it fall back to its raw rows
	// (hybrid), while the others stay on their models.
	if !eng.Models.Drop("law#p1") {
		t.Fatal("drop law#p1")
	}
	res := eng.MustExec(`APPROX SELECT avg(intensity) FROM m WHERE source >= 100 AND source < 200`)
	if !res.Hybrid {
		t.Error("query over the unmodeled partition should be hybrid")
	}
	exact := eng.MustExec(`SELECT avg(intensity) FROM m WHERE source >= 100 AND source < 200`)
	if a, x := res.Rows[0][0].F, exact.Rows[0][0].F; a < x-1e-9 || a > x+1e-9 {
		t.Errorf("raw-fallback avg %g vs exact %g", a, x)
	}
	// All-partition query still answers, hybrid.
	res = eng.MustExec(`APPROX SELECT count(*) FROM m`)
	if !res.Hybrid {
		t.Error("all-partition query with one unmodeled partition should be hybrid")
	}
}

func TestPartitionedPreparedPointQuery(t *testing.T) {
	eng := partedEngine(t, 16, 0.01, 7)
	fitParted(t, eng)
	stmt, err := eng.Prepare(`APPROX SELECT intensity FROM m WHERE source = ? AND nu = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int64{0, 250, 1550} {
		rows, err := stmt.Query(context.Background(), src, 2.0)
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if rows.PartitionsPruned != 15 {
			t.Fatalf("source %d pruned %d, want 15", src, rows.PartitionsPruned)
		}
		if !rows.Next() {
			t.Fatalf("source %d: no row: %v", src, rows.Err())
		}
		var y float64
		if err := rows.Scan(&y); err != nil {
			t.Fatal(err)
		}
		want := (2+float64(src%7))*2.0 + float64(src%13)
		if y < want-0.5 || y > want+0.5 {
			t.Fatalf("source %d: approx %g, want ≈ %g", src, y, want)
		}
		rows.Close()
	}
}
