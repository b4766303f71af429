package exec

import (
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

func TestVecTableScanSnapshotsRowCount(t *testing.T) {
	s, _ := table.NewSchema(table.ColumnDef{Name: "v", Type: storage.TypeInt64})
	tb := table.New("t", s)
	for i := 0; i < 3; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	scan := tablePipes(&tableMorsels{parts: []*table.Table{tb}, alias: tb.Name, cols: qualifiedCols(tb)}, 1)[0].src
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	// Rows appended after Open must not appear in this scan.
	if err := tb.AppendRow([]expr.Value{expr.Int(99)}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		if _, ok := scan.NextMorsel(); !ok {
			break
		}
		for {
			b, err := scan.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			total += b.NumRows()
		}
	}
	if total != 3 {
		t.Fatalf("scan saw %d rows, want 3", total)
	}
}

func TestRowAdapterReopens(t *testing.T) {
	vs := &VecValuesScan{Cols: []string{"a"}, Rows: []Row{{expr.Int(1)}, {expr.Int(2)}}}
	op := &rowAdapter{V: vs}
	for pass := 0; pass < 2; pass++ {
		rows, err := Drain(op)
		if err != nil || len(rows) != 2 {
			t.Fatalf("pass %d: rows=%v err=%v", pass, rows, err)
		}
		if rows[0][0].I != 1 || rows[1][0].I != 2 {
			t.Fatalf("pass %d: rows=%v", pass, rows)
		}
	}
}

// TestValuesBatchRoundTrip: boxed rows transposed into a batch and read
// back through the row adapter keep their values and NULLs.
func TestValuesBatchRoundTrip(t *testing.T) {
	src := &VecValuesScan{Cols: []string{"a", "b"}, Rows: []Row{
		{expr.Int(1), expr.Str("x")},
		{expr.Null(), expr.Str("y")},
		{expr.Int(3), expr.Null()},
	}}
	rows, err := Drain(&rowAdapter{V: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 1 || !rows[1][0].IsNull() || !rows[2][1].IsNull() {
		t.Fatalf("round trip mangled values: %v", rows)
	}
}

func TestVectorFromValuesPreservesMixedKinds(t *testing.T) {
	vals := []expr.Value{expr.Int(1), expr.Float(2.5), expr.Null()}
	v := vectorFromValues(vals)
	if v.Kind != anyKind {
		t.Fatalf("kind = %v, want boxed any-vector", v.Kind)
	}
	if v.Value(0).K != expr.KindInt || v.Value(1).K != expr.KindFloat || !v.IsNull(2) {
		t.Fatalf("values mangled: %v %v %v", v.Value(0), v.Value(1), v.Value(2))
	}
}

func TestVectorFromValuesTyped(t *testing.T) {
	v := vectorFromValues([]expr.Value{expr.Float(1), expr.Null(), expr.Float(3)})
	if v.Kind != expr.KindFloat || v.Len() != 3 {
		t.Fatalf("kind=%v len=%d", v.Kind, v.Len())
	}
	if v.F[0] != 1 || !v.IsNull(1) || v.F[2] != 3 {
		t.Fatalf("values mangled")
	}
}

func TestVecConcatColumnMismatch(t *testing.T) {
	c := &VecConcat{Children: []VectorOperator{
		&VecValuesScan{Cols: []string{"a"}},
		&VecValuesScan{Cols: []string{"b"}},
	}}
	if err := c.Open(); err == nil {
		t.Fatal("want column mismatch error")
	}
}

// TestVecConcatNextBatchAfterEnd: like every operator, an exhausted concat
// keeps answering nil — the claim loop calls NextBatch again after a nil.
func TestVecConcatNextBatchAfterEnd(t *testing.T) {
	c := &VecConcat{Children: []VectorOperator{
		&VecValuesScan{Cols: []string{"a"}, Rows: []Row{{expr.Int(1)}}},
		&VecValuesScan{Cols: []string{"a"}, Rows: []Row{{expr.Int(2)}}},
	}}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := 0
	for {
		b, err := c.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.NumRows()
	}
	if rows != 2 {
		t.Fatalf("drained %d rows, want 2", rows)
	}
	if b, err := c.NextBatch(); b != nil || err != nil {
		t.Fatalf("NextBatch after end = %v, %v; want nil, nil", b, err)
	}
}

func TestVecFilterEmptyBatches(t *testing.T) {
	// Three batches worth of rows where only one row matches: the filter
	// must skip fully-filtered batches rather than emitting empty ones.
	rows := make([]Row, 3*BatchSize)
	for i := range rows {
		rows[i] = Row{expr.Int(int64(i))}
	}
	pred, err := expr.Parse("v = 2500")
	if err != nil {
		t.Fatal(err)
	}
	f := &VecFilter{Child: &VecValuesScan{Cols: []string{"v"}, Rows: rows}, Pred: pred}
	out, err := Drain(&rowAdapter{V: f})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].I != 2500 {
		t.Fatalf("rows = %v", out)
	}
}
