package sql

import (
	"testing"

	"datalaws/internal/storage"
)

func TestParseCreateTablePartitioned(t *testing.T) {
	st, err := Parse(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)
		PARTITION BY RANGE(source) (
			PARTITION p0 VALUES LESS THAN (100),
			PARTITION neg VALUES LESS THAN (-2.5),
			PARTITION rest VALUES LESS THAN (MAXVALUE)
		)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := st.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.PartCol != "source" {
		t.Fatalf("column = %q", ct.PartCol)
	}
	if len(ct.Parts) != 3 {
		t.Fatalf("parts = %d", len(ct.Parts))
	}
	p := ct.Parts
	if p[0].Name != "p0" || p[0].Upper != 100 || p[0].Max {
		t.Errorf("p0 = %+v", p[0])
	}
	if p[1].Name != "neg" || p[1].Upper != -2.5 || p[1].Max {
		t.Errorf("neg = %+v", p[1])
	}
	if p[2].Name != "rest" || !p[2].Max {
		t.Errorf("rest = %+v", p[2])
	}
	if len(ct.Cols) != 3 || ct.Cols[0].Type != storage.TypeInt64 {
		t.Errorf("cols = %+v", ct.Cols)
	}
	// Note: bound ordering is validated at CREATE time, not by the parser.
}

func TestParseCreateTableUnpartitionedUnchanged(t *testing.T) {
	st, err := Parse(`CREATE TABLE t (a BIGINT)`)
	if err != nil {
		t.Fatal(err)
	}
	if ct := st.(*CreateTableStmt); ct.PartCol != "" || ct.Parts != nil {
		t.Fatalf("unexpected partition spec: %+v", ct.Decl)
	}
}

// TestPartitionWordsNotReserved pins that the contextual words of the
// PARTITION BY clause stay usable as ordinary identifiers everywhere else —
// pre-existing schemas with such column or table names must keep parsing.
func TestPartitionWordsNotReserved(t *testing.T) {
	for _, src := range []string{
		`SELECT range, less, than, maxvalue FROM partition`,
		`CREATE TABLE partition (range DOUBLE, less BIGINT, than TEXT, maxvalue BOOL)`,
		`SELECT x FROM t WHERE range > 5 ORDER BY partition`,
		`INSERT INTO range VALUES (1)`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	// And a table named like a contextual word can itself be partitioned.
	st, err := Parse(`CREATE TABLE range (partition BIGINT) PARTITION BY RANGE(partition) (PARTITION less VALUES LESS THAN (MAXVALUE))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.PartCol != "partition" || len(ct.Parts) != 1 || ct.Parts[0].Name != "less" {
		t.Fatalf("partition spec = %+v", ct.Decl)
	}
}

func TestParsePartitionErrors(t *testing.T) {
	for _, src := range []string{
		`CREATE TABLE t (a BIGINT) PARTITION`,
		`CREATE TABLE t (a BIGINT) PARTITION BY HASH(a) (PARTITION p VALUES LESS THAN (1))`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE(a)`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE(a) ()`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE(a) (PARTITION p VALUES LESS THAN 1)`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE(a) (PARTITION p VALUES LESS THAN (1),)`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE(a) (PARTITION p LESS THAN (1))`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE(a) (PARTITION p VALUES LESS THAN (MAXVALUE)) trailing`,
		`CREATE TABLE t (a BIGINT) PARTITION BY RANGE() (PARTITION p VALUES LESS THAN (1))`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}
