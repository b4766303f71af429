package sql

import (
	"strings"
	"testing"

	"datalaws/internal/storage"
)

func parseSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, st)
	}
	return sel
}

func TestParseBasicSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT intensity FROM measurements WHERE source = 42 AND wavelength = 0.14")
	if sel.From != "measurements" {
		t.Fatalf("from = %q", sel.From)
	}
	if len(sel.Items) != 1 || sel.Items[0].Expr.String() != "intensity" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if sel.Where == nil {
		t.Fatal("missing where")
	}
	if sel.Approx || sel.WithError {
		t.Fatal("flags should be unset")
	}
}

func TestParsePaperQueries(t *testing.T) {
	// Both example queries from §2 of the paper must parse.
	q1 := "SELECT intensity FROM measurements WHERE source = 42 AND wavelength = 0.14;"
	q2 := "SELECT source, intensity FROM measurements WHERE wavelength = 0.14 AND intensity > 3.0;"
	for _, q := range []string{q1, q2} {
		if _, err := Parse(q); err != nil {
			t.Fatalf("paper query %q: %v", q, err)
		}
	}
}

func TestParseApproxWithError(t *testing.T) {
	sel := parseSelect(t, "APPROX SELECT intensity FROM m WHERE source = 1 WITH ERROR")
	if !sel.Approx || !sel.WithError {
		t.Fatalf("flags = %v %v", sel.Approx, sel.WithError)
	}
}

func TestParseSelectFull(t *testing.T) {
	sel := parseSelect(t, `SELECT source, avg(intensity) AS mean_i FROM m
		WHERE nu > 0.1 GROUP BY source HAVING count(*) > 10
		ORDER BY mean_i DESC, source ASC LIMIT 5`)
	if len(sel.Items) != 2 || sel.Items[1].Alias != "mean_i" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("group by / having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order = %+v", sel.OrderBy)
	}
	if sel.Limit != 5 {
		t.Fatalf("limit = %d", sel.Limit)
	}
}

func TestParseImplicitAlias(t *testing.T) {
	sel := parseSelect(t, "SELECT intensity flux FROM m")
	if sel.Items[0].Alias != "flux" {
		t.Fatalf("alias = %q", sel.Items[0].Alias)
	}
}

func TestParseStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM m LIMIT 3")
	if !sel.Items[0].Star {
		t.Fatal("star not detected")
	}
}

func TestParseJoin(t *testing.T) {
	sel := parseSelect(t, "SELECT m.intensity, s.name FROM m JOIN s ON m.source = s.id WHERE s.name = 'pulsar'")
	if len(sel.Joins) != 1 || sel.Joins[0].Table != "s" {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	if sel.Items[0].Expr.String() != "m.intensity" {
		t.Fatalf("qualified ident = %q", sel.Items[0].Expr.String())
	}
}

func TestParseInnerJoinKeyword(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM m INNER JOIN s ON m.k = s.k")
	if len(sel.Joins) != 1 {
		t.Fatal("inner join")
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE measurements (source BIGINT, nu DOUBLE, intensity DOUBLE, label VARCHAR, ok BOOLEAN)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.Name != "measurements" || len(ct.Cols) != 5 {
		t.Fatalf("%+v", ct)
	}
	wantTypes := []storage.ColType{storage.TypeInt64, storage.TypeFloat64, storage.TypeFloat64, storage.TypeString, storage.TypeBool}
	for i, w := range wantTypes {
		if ct.Cols[i].Type != w {
			t.Fatalf("col %d type = %v, want %v", i, ct.Cols[i].Type, w)
		}
	}
}

// TestParseUTF8Names: statements name columns in any UTF-8 letters.
func TestParseUTF8Names(t *testing.T) {
	if sel := parseSelect(t, "SELECT température FROM t WHERE température > 0"); sel.Items[0].Expr.String() != "température" {
		t.Fatalf("items = %+v", sel.Items)
	}
	st, err := Parse("CREATE TABLE t (température DOUBLE)")
	if err != nil {
		t.Fatal(err)
	}
	if ct := st.(*CreateTableStmt); len(ct.Cols) != 1 || ct.Cols[0].Name != "température" {
		t.Fatalf("%+v", ct)
	}
	if st, err := Parse("SELECT \xc4 FROM t"); err == nil {
		t.Fatalf("invalid UTF-8 parsed as %+v", st)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO m VALUES (1, 0.12, 2.31), (2, 0.15, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if ins.Table != "m" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("%+v", ins)
	}
}

func TestParseFitModel(t *testing.T) {
	st, err := Parse(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -0.5) METHOD LM`)
	if err != nil {
		t.Fatal(err)
	}
	fm := st.(*FitModelStmt)
	if fm.Name != "spectra" || fm.Table != "measurements" {
		t.Fatalf("%+v", fm)
	}
	if fm.Formula != "intensity ~ p * pow(nu, alpha)" {
		t.Fatalf("formula = %q", fm.Formula)
	}
	if len(fm.Inputs) != 1 || fm.Inputs[0] != "nu" {
		t.Fatalf("inputs = %v", fm.Inputs)
	}
	if fm.GroupBy != "source" {
		t.Fatalf("group by = %q", fm.GroupBy)
	}
	if fm.Start["p"] != 1 || fm.Start["alpha"] != -0.5 {
		t.Fatalf("start = %v", fm.Start)
	}
	if fm.Method != "lm" {
		t.Fatalf("method = %q", fm.Method)
	}
}

func TestParseFitModelWithWhere(t *testing.T) {
	st, err := Parse("FIT MODEL m1 ON t AS 'y ~ a + b*x' INPUTS (x) WHERE x > 0")
	if err != nil {
		t.Fatal(err)
	}
	fm := st.(*FitModelStmt)
	if fm.Where == nil {
		t.Fatal("missing where")
	}
}

func TestParseShowDropRefit(t *testing.T) {
	if st, err := Parse("SHOW MODELS"); err != nil {
		t.Fatal(err)
	} else if _, ok := st.(*ShowModelsStmt); !ok {
		t.Fatalf("%T", st)
	}
	if st, err := Parse("DROP MODEL spectra"); err != nil {
		t.Fatal(err)
	} else if st.(*DropModelStmt).Name != "spectra" {
		t.Fatal("name")
	}
	if st, err := Parse("REFIT MODEL spectra"); err != nil {
		t.Fatal(err)
	} else if st.(*RefitModelStmt).Name != "spectra" {
		t.Fatal("name")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM m",
		"SELECT a FROM",
		"SELECT a FROM m WHERE",
		"SELECT a FROM m GROUP",
		"SELECT a FROM m LIMIT -1",
		"SELECT a FROM m LIMIT x",
		"CREATE TABLE t (a NOTATYPE)",
		"CREATE TABLE t a BIGINT",
		"INSERT INTO t (1)",
		"FIT MODEL m ON t",
		"FIT MODEL m ON t AS 'y ~ x' METHOD XX",
		"DELETE FROM t",
		"SELECT a FROM m; SELECT b FROM m",
		"SELECT 'unterminated FROM m",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestParseBetween(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM m WHERE nu BETWEEN 0.1 AND 0.2")
	if !strings.Contains(sel.Where.String(), ">=") || !strings.Contains(sel.Where.String(), "<=") {
		t.Fatalf("between expansion = %s", sel.Where)
	}
}

func TestParseComments(t *testing.T) {
	sel := parseSelect(t, "SELECT a -- trailing comment\nFROM m")
	if sel.From != "m" {
		t.Fatal("comment handling")
	}
}

func TestParseCountStar(t *testing.T) {
	sel := parseSelect(t, "SELECT count(*) FROM m")
	if sel.Items[0].Expr.String() != "count()" {
		t.Fatalf("count(*) = %q", sel.Items[0].Expr.String())
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT @"); err == nil {
		t.Fatal("want lex error")
	}
	if _, err := Lex("'open"); err == nil {
		t.Fatal("want unterminated string error")
	}
}

func TestLexStringEscape(t *testing.T) {
	toks, err := Lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "it's" {
		t.Fatalf("got %q", toks[0].Text)
	}
}

func TestParseDropTable(t *testing.T) {
	st, err := Parse("DROP TABLE measurements")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := st.(*DropTableStmt)
	if !ok || d.Name != "measurements" {
		t.Fatalf("parsed %#v", st)
	}
	// DROP MODEL still parses as before.
	st, err = Parse("DROP MODEL spectra")
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := st.(*DropModelStmt); !ok || m.Name != "spectra" {
		t.Fatalf("parsed %#v", st)
	}
	if _, err := Parse("DROP spectra"); err == nil {
		t.Fatal("DROP without TABLE/MODEL should fail")
	}
}
