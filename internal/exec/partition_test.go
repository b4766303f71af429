package exec

import (
	"fmt"
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// partedFixture builds a catalog with a 4-partition table and an identical
// unpartitioned copy, rows rows total.
func partedFixture(t *testing.T, rows int) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "k", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "s", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Declare(table.Decl{Name: "t", Cols: schema.Cols, PartCol: "k", Parts: []table.RangePartition{
		{Name: "p0", Upper: 100},
		{Name: "p1", Upper: 200},
		{Name: "p2", Upper: 300},
		{Name: "p3", Max: true},
	}}); err != nil {
		t.Fatal(err)
	}
	pt, _ := cat.GetPartitioned("t")
	flat, err := cat.Create("flat", schema)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]expr.Value, 0, rows)
	for i := 0; i < rows; i++ {
		k := int64((i * 13) % 400)
		row := []expr.Value{expr.Int(k), expr.Float(float64(i) * 0.5), expr.Str(fmt.Sprintf("s%d", i%7))}
		batch = append(batch, row)
	}
	if n, err := pt.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("partitioned append: %d, %v", n, err)
	}
	if n, err := flat.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("flat append: %d, %v", n, err)
	}
	return cat
}

// partitionQueries reference the partitioned table as "t"; the same text
// with "flat" substituted runs against the unpartitioned copy.
var partitionQueries = []string{
	"SELECT * FROM t",
	"SELECT k, x FROM t WHERE k = 150",
	"SELECT k, x FROM t WHERE k >= 100 AND k < 200",
	"SELECT count(*), sum(x) FROM t WHERE k < 100",
	"SELECT k, count(*) FROM t GROUP BY k ORDER BY k LIMIT 10",
	"SELECT s, count(*), avg(x) FROM t GROUP BY s ORDER BY s",
	"SELECT k, x FROM t WHERE k > 250 ORDER BY x DESC, k LIMIT 7",
	"SELECT count(*) FROM t WHERE k >= 400", // everything pruned
	"SELECT x FROM t WHERE k = 399 AND x > 0 ORDER BY x LIMIT 3",
	// One partition survives, and of its four chunks only the tail: x grows
	// with insertion order, so zone maps prune the three sealed ones.
	"SELECT k, x FROM t WHERE k >= 100 AND k < 200 AND x >= 1990",
}

// TestPartitionScanMatchesFlat runs every query against the partitioned
// table in all three strategies (row, one worker, four workers) and against
// the unpartitioned copy, demanding identical results. Partitioned row
// order interleaves differently from insertion order, so unordered queries
// compare as sorted multisets.
func TestPartitionScanMatchesFlat(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := partedFixture(t, 4000)
	for _, q := range partitionQueries {
		flatQ := strings.ReplaceAll(q, " t", " flat")
		flatSt, err := sql.Parse(flatQ)
		if err != nil {
			t.Fatal(err)
		}
		flatOp, err := buildPlan(cat, flatSt.(*sql.SelectStmt), nil)
		if err != nil {
			t.Fatalf("plan flat %q: %v", flatQ, err)
		}
		want, wantErr := Drain(rowReference(flatOp))
		if wantErr != nil {
			t.Fatalf("flat %q: %v", flatQ, wantErr)
		}
		ordered := strings.Contains(q, "ORDER BY")
		for _, strategy := range []int{rowRef, 1, 4} {
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			op, err := buildStrategy(cat, st.(*sql.SelectStmt), strategy)
			if err != nil {
				t.Fatalf("plan %q (%s): %v", q, strategyName(strategy), err)
			}
			got, gotErr := Drain(op)
			if gotErr != nil {
				t.Fatalf("%q (%s): %v", q, strategyName(strategy), gotErr)
			}
			compareRows(t, fmt.Sprintf("%q (%s)", q, strategyName(strategy)), want, got, ordered)
		}
	}
}

// TestPartitionScanSnapshotsAtOpen: every surviving partition is captured
// when the plan opens, so rows appended afterwards — even into a partition
// the scan has not reached yet — are not returned, in any strategy.
func TestPartitionScanSnapshotsAtOpen(t *testing.T) {
	withSmallMorsels(t, 256)
	for _, strategy := range []int{rowRef, 1, 4} {
		cat := partedFixture(t, 4000)
		pt, _ := cat.GetPartitioned("t")
		st, err := sql.Parse("SELECT k FROM t")
		if err != nil {
			t.Fatal(err)
		}
		op, err := buildStrategy(cat, st.(*sql.SelectStmt), strategy)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		late := [][]expr.Value{
			{expr.Int(350), expr.Float(-1), expr.Str("late")},
			{expr.Int(399), expr.Float(-2), expr.Str("late")},
		}
		if n, err := pt.AppendRows(late); err != nil || n != len(late) {
			t.Fatalf("late append: %d, %v", n, err)
		}
		rows := 0
		for {
			row, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				break
			}
			rows++
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if rows != 4000 {
			t.Errorf("%s: scan returned %d rows, want the 4000 present at Open", strategyName(strategy), rows)
		}
	}
}

// compareRows compares result sets; when ordered is false both sides are
// sorted by their rendered form first.
func compareRows(t *testing.T, label string, want, got []Row, ordered bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	render := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			var sb strings.Builder
			for c, v := range r {
				if c > 0 {
					sb.WriteByte('|')
				}
				sb.WriteString(fmt.Sprintf("%s:%s", v.K, v))
			}
			out[i] = sb.String()
		}
		return out
	}
	w, g := render(want), render(got)
	if !ordered {
		sortStrings(w)
		sortStrings(g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: row %d mismatch:\n  want %s\n  got  %s", label, i, w[i], g[i])
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestPartitionPruningInPlan pins that pruning actually removes partitions
// from the plan and that EXPLAIN reports it.
func TestPartitionPruningInPlan(t *testing.T) {
	cat := partedFixture(t, 400)
	build := func(q string) Node {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		op, err := buildPlan(cat, st.(*sql.SelectStmt), nil)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	findScan := func(op Node) *PartitionScan {
		for {
			switch o := op.(type) {
			case *PartitionScan:
				return o
			case *Filter:
				op = o.Child
			case *Project:
				op = o.Child
			case *HashAggregate:
				op = o.Child
			case *Limit:
				op = o.Child
			case *Sort:
				op = o.Child
			case *sliceOp:
				op = o.Child
			default:
				t.Fatalf("no PartitionScan under %T", op)
			}
		}
	}
	for _, c := range []struct {
		q         string
		surviving int
	}{
		{"SELECT k FROM t WHERE k = 150", 1},
		{"SELECT k FROM t WHERE k >= 100 AND k < 300", 2},
		{"SELECT k FROM t", 4},
		{"SELECT k FROM t WHERE k >= 400", 1}, // p3 is MAXVALUE: [300, inf)
	} {
		ps := findScan(build(c.q))
		if len(ps.Parts) != c.surviving {
			t.Errorf("%q: %d surviving partitions, want %d", c.q, len(ps.Parts), c.surviving)
		}
		wantLine := fmt.Sprintf("partitions: %d/4 pruned", 4-c.surviving)
		op, err := Lower(build(c.q), 1)
		if err != nil {
			t.Fatal(err)
		}
		if plan := PlanString(op); !strings.Contains(plan, wantLine) {
			t.Errorf("%q: EXPLAIN missing %q:\n%s", c.q, wantLine, plan)
		}
	}
}

// TestPartitionScanParallelExplain pins the morsel-split path renders its
// pruning provenance too.
func TestPartitionScanParallelExplain(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := partedFixture(t, 4000)
	st, err := sql.Parse("SELECT k FROM t WHERE k < 200")
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanString(op)
	if !strings.Contains(plan, "partitions: 2/4 pruned") {
		t.Errorf("parallel EXPLAIN missing pruning info:\n%s", plan)
	}
	if !strings.Contains(plan, "Gather") {
		t.Logf("plan did not parallelize (small machine?):\n%s", plan)
	}
}
