package exec

import (
	"testing"

	"datalaws/internal/expr"
)

// TestDrainCopiesRows: the pipeline's cursor fills one row buffer, so
// Drain copies each row out of it. Over a result of several batches every
// row it returns keeps its own value.
func TestDrainCopiesRows(t *testing.T) {
	const n = 5000 // five 1,024-row batches
	op, err := buildParallel(t, bigTable(t, n), "SELECT a FROM t", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("%d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if len(r) != 1 || r[0] != expr.Int(int64(i)) {
			t.Fatalf("row %d = %v, want [%d]", i, r, i)
		}
	}
}

// TestRowSlabCopiesStayApart: a copy is capped at its own length, so
// appending to one row cannot overwrite the next copy in its slab, and
// rows wider than a slab get a slab of their own.
func TestRowSlabCopiesStayApart(t *testing.T) {
	var slab RowSlab
	wide := make(Row, maxSlabValues+1)
	var got []Row
	for i := 0; i < 3*maxSlabValues; i++ {
		row := Row{expr.Int(int64(i)), expr.Str("x")}
		if i == maxSlabValues {
			row = wide
		}
		got = append(got, slab.Copy(row))
	}
	_ = append(got[0], expr.Int(-1))
	for i, r := range got {
		if i == maxSlabValues {
			if len(r) != len(wide) {
				t.Fatalf("wide row copied to %d values, want %d", len(r), len(wide))
			}
			continue
		}
		if len(r) != 2 || r[0] != expr.Int(int64(i)) || r[1] != expr.Str("x") {
			t.Fatalf("copy %d = %v", i, r)
		}
	}
}
