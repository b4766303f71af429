package exec

import (
	"context"
	"errors"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

func bigTable(t *testing.T, n int) *table.Catalog {
	t.Helper()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "a", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New("t", schema)
	for i := 0; i < n; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	cat := table.NewCatalog()
	if err := cat.Add(tb); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestBindContextCancelsScan(t *testing.T) {
	cat := bigTable(t, 50_000)
	for _, strategy := range []int{1, rowRef} {
		st, err := sql.Parse("SELECT a FROM t")
		if err != nil {
			t.Fatal(err)
		}
		op, err := buildStrategy(cat, st.(*sql.SelectStmt), strategy)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		bindReference(op, ctx)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		// Pull a few rows, then cancel: the scan must stop within one
		// interrupt stride instead of draining the table.
		n := 0
		var scanErr error
		for {
			row, err := op.Next()
			if err != nil {
				scanErr = err
				break
			}
			if row == nil {
				break
			}
			if n++; n == 3 {
				cancel()
			}
		}
		op.Close()
		if !errors.Is(scanErr, context.Canceled) {
			t.Fatalf("%s: err = %v after %d rows, want context.Canceled", strategyName(strategy), scanErr, n)
		}
		if n > 3+2*interruptStride {
			t.Fatalf("%s: %d rows after cancellation", strategyName(strategy), n)
		}
		cancel()
	}
}

func TestBindContextPreCanceledBlocksAggregate(t *testing.T) {
	cat := bigTable(t, 10_000)
	st, err := sql.Parse("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	BindContext(op, ctx)
	// The aggregate drains its child at Open; the leaf's first interrupt
	// check must abort the drain.
	if err := op.Open(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open err = %v, want context.Canceled", err)
	}
	op.Close()
}

// TestBindContextCancelsJoinAmplification pins the join's own interrupt
// check: a join can emit far more rows than either input produces, so a
// single input batch can amplify past every leaf-level check. Two 1k-row
// tables joined on a constant key emit 1M rows; cancellation mid-stream
// must still take effect within one interrupt stride.
func TestBindContextCancelsJoinAmplification(t *testing.T) {
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "k", Type: storage.TypeInt64},
		table.ColumnDef{Name: "v", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := table.NewCatalog()
	for _, name := range []string{"l", "r"} {
		tb := table.New(name, schema)
		for i := 0; i < 1000; i++ {
			if err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sql.Parse("SELECT l.v, r.v FROM l JOIN r ON l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	BindContext(op, ctx)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	n := 0
	var scanErr error
	for {
		row, err := op.Next()
		if err != nil {
			scanErr = err
			break
		}
		if row == nil {
			break
		}
		if n++; n == 5 {
			cancel()
		}
	}
	if !errors.Is(scanErr, context.Canceled) {
		t.Fatalf("err = %v after %d rows, want context.Canceled", scanErr, n)
	}
	if n > 5+2*interruptStride {
		t.Fatalf("join emitted %d rows after cancellation", n)
	}
}

func TestBindContextNilIsNoOp(t *testing.T) {
	cat := bigTable(t, 100)
	st, _ := sql.Parse("SELECT a FROM t")
	op, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	BindContext(op, nil)
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
}
