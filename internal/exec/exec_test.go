package exec

import (
	"math"
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// fixture builds a catalog with a measurements table and a sources table.
func fixture(t *testing.T) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog()
	ms, err := table.NewSchema(
		table.ColumnDef{Name: "source", Type: storage.TypeInt64},
		table.ColumnDef{Name: "nu", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "intensity", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cat.Create("measurements", ms)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		src int64
		nu  float64
		i   float64
	}{
		{1, 0.12, 3.0}, {1, 0.15, 2.5}, {1, 0.16, 2.4}, {1, 0.18, 2.2},
		{2, 0.12, 5.0}, {2, 0.15, 4.2}, {2, 0.16, 4.0}, {2, 0.18, 3.6},
		{3, 0.12, 0.9}, {3, 0.15, 1.1},
	}
	for _, r := range rows {
		if err := m.AppendRow([]expr.Value{expr.Int(r.src), expr.Float(r.nu), expr.Float(r.i)}); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "name", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Create("sources", ss)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		id   int64
		name string
	}{{1, "pulsar"}, {2, "quasar"}, {3, "grb"}} {
		s.AppendRow([]expr.Value{expr.Int(r.id), expr.Str(r.name)})
	}
	return cat
}

func run(t *testing.T, cat *table.Catalog, q string) ([]string, []Row) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	op, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	cols := op.Columns()
	rows, err := Drain(op)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return cols, rows
}

func TestSelectWhere(t *testing.T) {
	cat := fixture(t)
	cols, rows := run(t, cat, "SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15")
	if len(cols) != 1 || cols[0] != "intensity" {
		t.Fatalf("cols = %v", cols)
	}
	if len(rows) != 1 || rows[0][0].F != 2.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelectPaperQuery2(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT source, intensity FROM measurements WHERE nu = 0.12 AND intensity > 3.0")
	if len(rows) != 1 || rows[0][0].I != 2 || rows[0][1].F != 5.0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelectStar(t *testing.T) {
	cat := fixture(t)
	cols, rows := run(t, cat, "SELECT * FROM measurements LIMIT 2")
	if len(cols) != 3 || cols[0] != "source" {
		t.Fatalf("cols = %v", cols)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestSelectExpression(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT intensity * 1000 AS mjy FROM measurements WHERE source = 3 AND nu = 0.12")
	if len(rows) != 1 || rows[0][0].F != 900 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	cat := fixture(t)
	cols, rows := run(t, cat, "SELECT count(*), avg(intensity), min(intensity), max(intensity), sum(intensity) FROM measurements")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[0].I != 10 {
		t.Fatalf("count = %v", r[0])
	}
	wantSum := 3.0 + 2.5 + 2.4 + 2.2 + 5.0 + 4.2 + 4.0 + 3.6 + 0.9 + 1.1
	if math.Abs(r[4].F-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %g", r[4], wantSum)
	}
	if math.Abs(r[1].F-wantSum/10) > 1e-12 {
		t.Fatalf("avg = %v", r[1])
	}
	if r[2].F != 0.9 || r[3].F != 5.0 {
		t.Fatalf("min/max = %v %v", r[2], r[3])
	}
	if len(cols) != 5 {
		t.Fatalf("cols = %v", cols)
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, `SELECT source, count(*) AS n, avg(intensity) AS mean_i
		FROM measurements GROUP BY source HAVING count(*) >= 4
		ORDER BY mean_i DESC`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Source 2 has the higher mean.
	if rows[0][0].I != 2 || rows[1][0].I != 1 {
		t.Fatalf("order = %v", rows)
	}
	if rows[0][1].I != 4 {
		t.Fatalf("count = %v", rows[0][1])
	}
}

func TestGroupByExprReuse(t *testing.T) {
	cat := fixture(t)
	// Group by an expression and select the same expression.
	_, rows := run(t, cat, "SELECT source % 2, count(*) FROM measurements GROUP BY source % 2 ORDER BY source % 2")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 0 || rows[0][1].I != 4 { // source 2 has 4 rows
		t.Fatalf("rows = %v", rows)
	}
	if rows[1][0].I != 1 || rows[1][1].I != 6 { // sources 1 and 3
		t.Fatalf("rows = %v", rows)
	}
}

func TestUngroupedColumnRejected(t *testing.T) {
	cat := fixture(t)
	st, err := sql.Parse("SELECT nu, count(*) FROM measurements GROUP BY source")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1); err == nil {
		t.Fatal("want error for ungrouped column")
	}
}

func TestHavingWithoutGroupRejected(t *testing.T) {
	cat := fixture(t)
	st, err := sql.Parse("SELECT nu FROM measurements HAVING nu > 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1); err == nil {
		t.Fatal("want error for HAVING without grouping")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT source, nu FROM measurements ORDER BY source ASC, nu DESC LIMIT 3")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 1 || rows[0][1].F != 0.18 {
		t.Fatalf("first = %v", rows[0])
	}
	if rows[2][1].F != 0.15 {
		t.Fatalf("third = %v", rows[2])
	}
}

func TestOrderByAlias(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT intensity AS flux FROM measurements WHERE source = 1 ORDER BY flux ASC")
	if len(rows) != 4 || rows[0][0].F != 2.2 || rows[3][0].F != 3.0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLimitZero(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT * FROM measurements LIMIT 0")
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestJoin(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, `SELECT name, avg(intensity) FROM measurements
		JOIN sources ON source = id GROUP BY name ORDER BY name`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// alphabetical: grb, pulsar, quasar
	if rows[0][0].S != "grb" || rows[1][0].S != "pulsar" || rows[2][0].S != "quasar" {
		t.Fatalf("names = %v", rows)
	}
	if math.Abs(rows[0][1].F-1.0) > 1e-12 {
		t.Fatalf("grb avg = %v", rows[0][1])
	}
}

func TestJoinQualifiedColumns(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, `SELECT measurements.intensity FROM measurements
		JOIN sources ON measurements.source = sources.id
		WHERE sources.name = 'pulsar' AND measurements.nu = 0.12`)
	if len(rows) != 1 || rows[0][0].F != 3.0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestJoinNonEquiRejected(t *testing.T) {
	cat := fixture(t)
	st, err := sql.Parse("SELECT name FROM measurements JOIN sources ON source < id")
	if err != nil {
		t.Fatal(err)
	}
	_, err = BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
	if want := "exec: join condition (source < id) is not an equality"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestUnknownTable(t *testing.T) {
	cat := fixture(t)
	st, _ := sql.Parse("SELECT a FROM nope")
	if _, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1); err == nil {
		t.Fatal("want unknown-table error")
	}
}

// TestUnknownColumnErrorsAtExec pins that a plan that cannot run fails at
// plan time, with the text the row operators give when they evaluate it.
func TestUnknownColumnErrorsAtExec(t *testing.T) {
	cat := fixture(t)
	for q, want := range map[string]string{
		"SELECT nope FROM measurements":              `exec: projecting nope: expr: unknown identifier "nope"`,
		"SELECT source FROM measurements WHERE nope": `exec: WHERE: expr: unknown identifier "nope"`,
		"SELECT nope(nu) FROM measurements":          `exec: projecting nope(nu): expr: unknown function "nope"`,
	} {
		st, _ := sql.Parse(q)
		_, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
		if err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %q", q, err, want)
		}
		ref, _ := buildStrategy(cat, st.(*sql.SelectStmt), rowRef)
		if _, err := Drain(ref); err == nil || err.Error() != want {
			t.Errorf("%q: row reference err = %v, want %q", q, err, want)
		}
	}
}

func TestVarStdDev(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT var(intensity), stddev(intensity) FROM measurements WHERE source = 3")
	// Values 0.9, 1.1: var = 0.02, sd = sqrt(0.02).
	if math.Abs(rows[0][0].F-0.02) > 1e-12 {
		t.Fatalf("var = %v", rows[0][0])
	}
	if math.Abs(rows[0][1].F-math.Sqrt(0.02)) > 1e-12 {
		t.Fatalf("stddev = %v", rows[0][1])
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT count(*), sum(intensity) FROM measurements WHERE source = 99")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 0 {
		t.Fatalf("count = %v", rows[0][0])
	}
	if !rows[0][1].IsNull() {
		t.Fatalf("sum over empty = %v, want NULL", rows[0][1])
	}
}

func TestNullsSortFirst(t *testing.T) {
	cat := table.NewCatalog()
	s, _ := table.NewSchema(table.ColumnDef{Name: "v", Type: storage.TypeFloat64})
	tb, _ := cat.Create("t", s)
	tb.AppendRow([]expr.Value{expr.Float(2)})
	tb.AppendRow([]expr.Value{expr.Null()})
	tb.AppendRow([]expr.Value{expr.Float(1)})
	_, rows := run(t, cat, "SELECT v FROM t ORDER BY v")
	if !rows[0][0].IsNull() || rows[1][0].F != 1 || rows[2][0].F != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	cat := table.NewCatalog()
	s, _ := table.NewSchema(table.ColumnDef{Name: "v", Type: storage.TypeFloat64})
	tb, _ := cat.Create("t", s)
	tb.AppendRow([]expr.Value{expr.Float(2)})
	tb.AppendRow([]expr.Value{expr.Null()})
	_, rows := run(t, cat, "SELECT count(v), count(*) FROM t")
	if rows[0][0].I != 1 || rows[0][1].I != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestResolveColumn(t *testing.T) {
	cols := []string{"m.source", "m.nu", "s.id", "alias"}
	if i, err := ResolveColumn(cols, "nu"); err != nil || i != 1 {
		t.Fatalf("nu: %d %v", i, err)
	}
	if i, err := ResolveColumn(cols, "m.source"); err != nil || i != 0 {
		t.Fatalf("qualified: %d %v", i, err)
	}
	if i, err := ResolveColumn(cols, "alias"); err != nil || i != 3 {
		t.Fatalf("bare: %d %v", i, err)
	}
	if _, err := ResolveColumn(cols, "missing"); err == nil {
		t.Fatal("want missing error")
	}
	dup := []string{"a.x", "b.x"}
	if _, err := ResolveColumn(dup, "x"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguous error, got %v", err)
	}
}

func TestValuesScan(t *testing.T) {
	vs := rowReference(&ValuesScan{Cols: []string{"a"}, Rows: []Row{{expr.Int(1)}, {expr.Int(2)}}})
	rows, err := Drain(vs)
	if err != nil || len(rows) != 2 {
		t.Fatalf("%v %v", rows, err)
	}
	// Reopen must rewind.
	rows, err = Drain(vs)
	if err != nil || len(rows) != 2 {
		t.Fatalf("reopen: %v %v", rows, err)
	}
}

func TestScanSnapshotsRowCount(t *testing.T) {
	cat := fixture(t)
	m, _ := cat.Get("measurements")
	scan := rowReference(NewTableScan(m))
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	// Append after open; the scan must not see the new row.
	m.AppendRow([]expr.Value{expr.Int(9), expr.Float(0.5), expr.Float(9)})
	n := 0
	for {
		r, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("scan saw %d rows, want 10", n)
	}
}

func TestDistinctAggDedup(t *testing.T) {
	// The same aggregate appearing twice must compute once but project twice.
	cat := fixture(t)
	_, rows := run(t, cat, "SELECT avg(intensity), avg(intensity) * 2 FROM measurements WHERE source = 3")
	if math.Abs(rows[0][0].F-1.0) > 1e-12 || math.Abs(rows[0][1].F-2.0) > 1e-12 {
		t.Fatalf("rows = %v", rows)
	}
}
