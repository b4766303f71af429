package exec

import (
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// diffFixture builds a catalog exercising every column type, NULLs in every
// nullable position, and enough rows to span selection-vector edge cases.
func diffFixture(t *testing.T) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog()
	ts, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "grp", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "y", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "label", Type: storage.TypeString},
		table.ColumnDef{Name: "flag", Type: storage.TypeBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Create("t", ts)
	if err != nil {
		t.Fatal(err)
	}
	null := expr.Null()
	rows := [][]expr.Value{
		{expr.Int(1), expr.Int(1), expr.Float(1.5), expr.Float(10), expr.Str("a"), expr.Bool(true)},
		{expr.Int(2), expr.Int(1), expr.Float(-2.5), null, expr.Str("b"), expr.Bool(false)},
		{expr.Int(3), expr.Int(2), null, expr.Float(30), expr.Str("a"), null},
		{expr.Int(4), expr.Int(2), expr.Float(4.0), expr.Float(-40), null, expr.Bool(true)},
		{expr.Int(5), null, expr.Float(0), expr.Float(50), expr.Str("c"), expr.Bool(false)},
		{expr.Int(6), expr.Int(3), expr.Float(6.25), null, expr.Str("b"), expr.Bool(true)},
		{expr.Int(7), expr.Int(3), null, null, expr.Str("NULL"), null},
		{expr.Int(8), null, expr.Float(8), expr.Float(80), null, expr.Bool(false)},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := table.NewSchema(
		table.ColumnDef{Name: "grp", Type: storage.TypeInt64},
		table.ColumnDef{Name: "name", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Create("g", ss)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]expr.Value{
		{expr.Int(1), expr.Str("one")},
		{expr.Int(2), expr.Str("two")},
		{expr.Int(3), expr.Str("three")},
	} {
		if err := s.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// differentialQueries covers filters, GROUP BY aggregates, expressions, and
// three-valued-logic edge cases. Every query must produce identical results
// (values and kinds) through the row and batch pipelines.
var differentialQueries = []string{
	"SELECT * FROM t",
	"SELECT id, x FROM t WHERE x > 0",
	"SELECT id FROM t WHERE x > 0 AND y > 0",
	"SELECT id FROM t WHERE x > 0 OR y > 0",
	// NULL on one side of AND/OR exercises all nine 3VL combinations.
	"SELECT id FROM t WHERE x > 0 AND y IS NULL",
	"SELECT id FROM t WHERE x IS NULL OR y < 0",
	"SELECT id FROM t WHERE NOT (x > 0)",
	"SELECT id FROM t WHERE NOT (x > 0 OR y > 0)",
	"SELECT id FROM t WHERE x IS NOT NULL AND y IS NOT NULL",
	// NULL literals propagate through comparisons and arithmetic.
	"SELECT id FROM t WHERE x > NULL OR id < 3",
	"SELECT id, x + NULL FROM t",
	// Short-circuit: the guarded division never sees x = 0.
	"SELECT id FROM t WHERE x <> 0 AND 10.0 / x > 2",
	// Mixed int/float comparison and arithmetic.
	"SELECT id FROM t WHERE id < x",
	"SELECT id, id + x, id * 2, id - 1, id % 3, x / 2.0, -x, x % 2.5 FROM t",
	// Integer arithmetic stays integral.
	"SELECT id + id, id * id FROM t",
	// Strings: equality, ordering, and the 'NULL' literal-string pitfall.
	"SELECT id FROM t WHERE label = 'a'",
	"SELECT id FROM t WHERE label > 'a'",
	"SELECT id, label FROM t WHERE label = 'NULL'",
	"SELECT id FROM t WHERE label IS NULL",
	// Booleans.
	"SELECT id FROM t WHERE flag",
	"SELECT id FROM t WHERE flag = TRUE",
	"SELECT id FROM t WHERE NOT flag",
	"SELECT id, flag IS NULL FROM t",
	// Built-in functions over nullable inputs.
	"SELECT id, abs(x), sqrt(y), pow(x, 2), min(x, y), round(x) FROM t",
	// Global aggregates: NULL skipping, empty input, COUNT(*) vs COUNT(col).
	"SELECT count(*), count(x), count(y), count(label) FROM t",
	"SELECT sum(x), avg(x), min(x), max(x), var(x), stddev(x) FROM t",
	"SELECT count(*), sum(x) FROM t WHERE x > 100",
	"SELECT min(label), max(label) FROM t",
	// Grouped aggregates, including NULL group keys and grouped expressions.
	"SELECT grp, count(*), sum(x) FROM t GROUP BY grp",
	"SELECT grp, avg(y) FROM t GROUP BY grp ORDER BY grp",
	"SELECT label, count(*) FROM t GROUP BY label ORDER BY label",
	"SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 1",
	"SELECT id % 2, count(*), max(y) FROM t GROUP BY id % 2 ORDER BY id % 2",
	// Projection over aggregates.
	"SELECT grp, sum(x) / count(x), count(*) + 1 FROM t GROUP BY grp ORDER BY grp",
	// ORDER BY, aliases, LIMIT.
	"SELECT id, x AS ex FROM t ORDER BY ex DESC LIMIT 3",
	"SELECT id FROM t ORDER BY y, id LIMIT 5",
	// On the many-chunk fixtures zone maps prune every sealed chunk here and
	// leave exactly one morsel, the hot tail: the pool collapses to the
	// inline claim loop whatever the worker budget.
	"SELECT id, x FROM t WHERE id >= 3990",
	"SELECT count(*), sum(x), min(label) FROM t WHERE id >= 3990",
	// Join: a probe stage in the pipeline over a build side from g.
	"SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp ORDER BY t.id",
	"SELECT g.name, count(*) FROM t JOIN g ON t.grp = g.grp GROUP BY g.name ORDER BY g.name",
}

// rowPlan builds q's logical plan without lowering it, as the row reference
// every pipeline is compared against.
func rowPlan(t *testing.T, cat *table.Catalog, q string) (Operator, error) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return buildStrategy(cat, st.(*sql.SelectStmt), rowRef)
}

// sameValue compares kind and content exactly (String() folds -0/0 and NaN
// representations consistently for both paths).
func sameValue(a, b expr.Value) bool {
	return a.K == b.K && a.String() == b.String()
}

func TestDifferentialRowVsBatch(t *testing.T) {
	cat := diffFixture(t)
	for _, q := range differentialQueries {
		rowOp, err := rowPlan(t, cat, q)
		if err != nil {
			t.Fatalf("plan (row) %q: %v", q, err)
		}
		batchOp, err := buildParallel(t, cat, q, 1)
		if err != nil {
			t.Fatalf("plan (batch) %q: %v", q, err)
		}
		rowRows, rowErr := Drain(rowOp)
		batchRows, batchErr := Drain(batchOp)
		if (rowErr == nil) != (batchErr == nil) {
			t.Fatalf("%q: row err = %v, batch err = %v", q, rowErr, batchErr)
		}
		if rowErr != nil {
			if rowErr.Error() != batchErr.Error() {
				t.Fatalf("%q: error mismatch: row %q vs batch %q", q, rowErr, batchErr)
			}
			continue
		}
		if len(rowRows) != len(batchRows) {
			t.Fatalf("%q: row count %d vs batch %d", q, len(rowRows), len(batchRows))
		}
		for i := range rowRows {
			if len(rowRows[i]) != len(batchRows[i]) {
				t.Fatalf("%q row %d: width %d vs %d", q, i, len(rowRows[i]), len(batchRows[i]))
			}
			for c := range rowRows[i] {
				if !sameValue(rowRows[i][c], batchRows[i][c]) {
					t.Fatalf("%q row %d col %d: row engine %v (%s) vs batch %v (%s)",
						q, i, c, rowRows[i][c], rowRows[i][c].K, batchRows[i][c], batchRows[i][c].K)
				}
			}
		}
	}
}

// TestDifferentialErrors checks that runtime errors surface in the pipeline
// exactly as in the row reference.
func TestDifferentialErrors(t *testing.T) {
	cat := diffFixture(t)
	for _, q := range []string{
		"SELECT 1 / 0 FROM t",
		"SELECT id FROM t WHERE 1 % 0 = 1",
		"SELECT id + label FROM t WHERE label = 'a'",
		"SELECT id FROM t WHERE label AND flag",
		// A builtin evaluates every argument: x is NULL on row 3, and the
		// second argument's error still surfaces.
		"SELECT pow(x, 1 / (id - 3)) FROM t WHERE id = 3",
	} {
		rowOp, rerr := rowPlan(t, cat, q)
		batchOp, berr := buildParallel(t, cat, q, 1)
		if rerr != nil || berr != nil {
			t.Fatalf("plan %q: %v / %v", q, rerr, berr)
		}
		_, rowErr := Drain(rowOp)
		_, batchErr := Drain(batchOp)
		if rowErr == nil || batchErr == nil {
			t.Fatalf("%q: want errors from both, got row=%v batch=%v", q, rowErr, batchErr)
		}
		if rowErr.Error() != batchErr.Error() {
			t.Fatalf("%q: error mismatch:\n  row:   %v\n  batch: %v", q, rowErr, batchErr)
		}
	}
}

// TestCoreQueriesVectorize pins that the flagship shapes, a LIMIT with no
// ORDER BY among them, lower to one pipeline.
func TestCoreQueriesVectorize(t *testing.T) {
	cat := diffFixture(t)
	for _, q := range []string{
		"SELECT * FROM t",
		"SELECT id FROM t WHERE x > 0",
		"SELECT count(*), avg(x) FROM t WHERE x > 0",
		"SELECT grp, sum(x) FROM t GROUP BY grp",
		"SELECT id, x FROM t ORDER BY x LIMIT 2",
		"SELECT id FROM t LIMIT 2",
		"SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp",
	} {
		op, err := buildParallel(t, cat, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := OnePipeline(PlanString(op)); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// TestAmbiguousColumnErrorsAtOpen is the regression test for eager
// identifier resolution: an ambiguous bare column must fail at Open, not as
// a misleading "unknown identifier" error on the first row.
func TestAmbiguousColumnErrorsAtOpen(t *testing.T) {
	child := &ValuesScan{Cols: []string{"a.x", "b.x"}, Rows: []Row{{expr.Int(1), expr.Int(2)}}}
	pred, err := expr.Parse("x > 0")
	if err != nil {
		t.Fatal(err)
	}
	f := rowReference(&Filter{Child: child, Pred: pred})
	openErr := f.Open()
	if openErr == nil || !strings.Contains(openErr.Error(), "ambiguous") {
		t.Fatalf("Filter.Open = %v, want ambiguous-column error", openErr)
	}

	p := rowReference(&Project{Child: child, Exprs: []expr.Expr{pred}, Names: []string{"p"}})
	if err := p.Open(); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("Project.Open = %v, want ambiguous-column error", err)
	}

	h := rowReference(&HashAggregate{Child: child, GroupExprs: []expr.Expr{&expr.Ident{Name: "x"}}})
	if err := h.Open(); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("HashAggregate.Open = %v, want ambiguous-column error", err)
	}

	// End to end: a join making a bare name ambiguous fails at Open time.
	cat := diffFixture(t)
	st, err := sql.Parse("SELECT t.id FROM t JOIN g ON t.grp = g.grp WHERE grp > 1")
	if err != nil {
		t.Fatal(err)
	}
	op, err := buildStrategy(cat, st.(*sql.SelectStmt), rowRef)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("Open = %v, want ambiguous-column error", err)
	}
}
