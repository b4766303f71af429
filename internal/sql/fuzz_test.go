package sql

import (
	"testing"

	"datalaws/internal/expr"
)

// fuzzSeeds covers every statement kind plus the differential query corpus
// shapes: filters, 3VL edge cases, grouped aggregates, ORDER BY/LIMIT,
// joins, placeholders, APPROX/WITH ERROR, and the FIT MODEL extension.
// Crashers found by fuzzing get committed under testdata/fuzz and replayed
// by plain `go test`.
var fuzzSeeds = []string{
	"SELECT * FROM t",
	"SELECT id, x FROM t WHERE x > 0 AND y IS NULL",
	"SELECT id FROM t WHERE NOT (x > 0 OR y > 0)",
	"SELECT id FROM t WHERE x > NULL OR id < 3",
	"SELECT id, id + x, id * 2, id % 3, x / 2.0, -x FROM t",
	"SELECT id FROM t WHERE label = 'a' AND flag = TRUE",
	"SELECT count(*), sum(x), avg(x), min(x), max(x), var(x), stddev(x) FROM t",
	"SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 1 ORDER BY grp DESC LIMIT 3",
	"SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp ORDER BY t.id",
	"SELECT id, x AS ex FROM t ORDER BY ex DESC LIMIT 3",
	"APPROX SELECT intensity FROM m WHERE source = ? AND nu = ? WITH ERROR",
	"APPROX SELECT source, avg(intensity) FROM m GROUP BY source",
	"SELECT abs(x), pow(x, 2), min(x, y), round(x) FROM t WHERE x <> 0 AND 10.0 / x > 2",
	"CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE, label VARCHAR, ok BOOLEAN)",
	"DROP TABLE m",
	"INSERT INTO m VALUES (1, 0.5, 2.5), (2, NULL, -1e9)",
	"FIT MODEL spectra ON m AS 'intensity ~ p * pow(nu, alpha)' INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)",
	"FIT MODEL lin ON m AS 'y ~ a + b * x' INPUTS (x) WHERE x > 0 METHOD gn",
	"SHOW MODELS",
	"DROP MODEL spectra",
	"REFIT MODEL spectra",
	"EXPLAIN SELECT * FROM t WHERE x = ?",
	"EXPLAIN APPROX SELECT intensity FROM m WHERE nu = 0.15",
	"SELECT 'unterminated",
	"SELECT 1e999, 0x, 9223372036854775808 FROM t",
	"select is null not between and or -- comment\n;",
	"((((((((((", "", " ", ";", "?", "'';''", "\x00\xff",
	// PARTITION BY RANGE grammar (the committed testdata/fuzz corpus covers
	// more shapes, including malformed ones).
	"CREATE TABLE t (k BIGINT, x DOUBLE) PARTITION BY RANGE(k) (PARTITION p0 VALUES LESS THAN (100), PARTITION p1 VALUES LESS THAN (MAXVALUE))",
	"CREATE TABLE t (k DOUBLE) PARTITION BY RANGE(k) (PARTITION neg VALUES LESS THAN (-2.5e3))",
	"CREATE TABLE t (k BIGINT) PARTITION BY RANGE(k) (PARTITION p VALUES LESS THAN",
	// A law's WHERE naming a column that only the formula grammar used to
	// reserve: its rendering must read back through expr.Parse.
	"FIT MODEL m ON t AS 'y ~ a * x + b' INPUTS (x) GROUP BY g WHERE like >= 0",
}

// FuzzParse throws arbitrary statement text at the lexer and parser. The
// invariants: never panic, never return a nil statement without an error,
// any parse that succeeds must survive parameter counting and placeholder
// binding (the prepared-statement path), and every expression in it without
// a placeholder renders to text that expr.Parse reads back to the same
// rendering (how a law's WHERE is persisted and reloaded).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Lex(src); err != nil {
			// Lexer rejections are fine; the parser must cope either way.
			_ = err
		}
		st, err := Parse(src)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", src)
		}
		n := NumParams(st)
		if n < 0 {
			t.Fatalf("NumParams(%q) = %d", src, n)
		}
		if n > 0 && n <= 16 {
			vals := make([]expr.Value, n)
			for i := range vals {
				vals[i] = expr.Int(int64(i))
			}
			bound, err := BindPrepared(st, vals, n)
			if err == nil && bound == nil {
				t.Fatalf("BindPrepared(%q) returned nil statement and nil error", src)
			}
		}
		for _, e := range stmtExprs(st) {
			if e == nil || expr.MaxParam(e) > 0 {
				continue
			}
			r, err := expr.Parse(e.String())
			if err != nil {
				t.Fatalf("Parse(%q): expression %s does not read back: %v", src, e, err)
			}
			if r.String() != e.String() {
				t.Fatalf("Parse(%q): expression %s reads back as %s", src, e, r)
			}
		}
	})
}

// stmtExprs lists the expressions of a statement: select items, join
// conditions, WHERE, GROUP BY, HAVING, ORDER BY, INSERT values and a FIT
// MODEL's WHERE. Entries may be nil.
func stmtExprs(st Stmt) []expr.Expr {
	switch s := st.(type) {
	case *ExplainStmt:
		return stmtExprs(s.Inner)
	case *SelectStmt:
		out := append([]expr.Expr{s.Where, s.Having}, s.GroupBy...)
		for _, it := range s.Items {
			out = append(out, it.Expr)
		}
		for _, j := range s.Joins {
			out = append(out, j.On)
		}
		for _, k := range s.OrderBy {
			out = append(out, k.Expr)
		}
		return out
	case *InsertStmt:
		var out []expr.Expr
		for _, row := range s.Rows {
			out = append(out, row...)
		}
		return out
	case *FitModelStmt:
		return []expr.Expr{s.Where}
	}
	return nil
}
