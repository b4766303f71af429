package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
)

// TestPlansShowWorkerBudget pins that the flagship shapes lower onto the one
// vectorized pipeline and that EXPLAIN names the worker budget at the stage
// that uses it.
func TestPlansShowWorkerBudget(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 3000)
	for q, want := range map[string]string{
		"SELECT * FROM t":                                              "Gather workers=4",
		"SELECT id, x FROM t WHERE x > 0":                              "Gather workers=4",
		"SELECT grp, sum(x) FROM t GROUP BY grp":                       "VecHashAggregate group=[grp] aggs=1 workers=4",
		"SELECT count(*) FROM t":                                       "VecHashAggregate group=[] aggs=1 workers=4",
		"SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 1": "VecHashAggregate group=[grp] aggs=1 workers=4",
		"SELECT id FROM t ORDER BY x LIMIT 2":                          "VecSort keys=1 limit=2 workers=4",
		"SELECT id FROM t ORDER BY x":                                  "VecSort keys=1 workers=4",
		"SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp":           "Gather workers=4",
	} {
		op, err := buildParallel(t, cat, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if plan := PlanString(op); !strings.Contains(plan, want) {
			t.Errorf("%q plan missing %q:\n%s", q, want, plan)
		}
	}
	// The join probes on every worker pipeline, over a build side drained
	// from the right input.
	op0, err := buildParallel(t, cat, "SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := "      VecHashJoin on (t.grp = g.grp) (build: right input, probe per morsel)\n        VecMorselScan t"
	if plan := PlanString(op0); !strings.Contains(plan, want) || !strings.Contains(plan, "VecMorselScan g") {
		t.Errorf("join plan is not a probe stage over vectorized inputs:\n%s", plan)
	}
	// Parallelism 1 is the same plan with a budget of one.
	op, err := buildParallel(t, cat, "SELECT * FROM t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan := PlanString(op); !strings.Contains(plan, "Gather workers=1") || !strings.Contains(plan, "VecMorselScan t") {
		t.Errorf("parallelism 1 is not the one-worker morsel plan:\n%s", plan)
	}
}

// walkVec visits a vectorized plan's operators top-down through the first
// worker's pipeline.
func walkVec(v VectorOperator, visit func(VectorOperator)) {
	visit(v)
	switch o := v.(type) {
	case *VecFilter:
		walkVec(o.Child, visit)
	case *VecProject:
		walkVec(o.Child, visit)
	case *oneMorsel:
		walkVec(o.VectorOperator, visit)
	case *VecGather:
		walkVec(o.pipes[0].pipe, visit)
	case *VecHashAggregate:
		walkVec(o.pipes[0].pipe, visit)
	case *VecSort:
		walkVec(o.pipes[0].pipe, visit)
	case *VecHashJoin:
		walkVec(o.Child, visit)
	}
}

// TestPoolSizedAtOpen pins the pool rule: min(budget, surviving morsels),
// decided when the plan opens. A plan whose input has at most one morsel —
// a small table, or a many-chunk table whose predicate leaves one chunk —
// runs inline in the caller: no goroutine, no channel.
func TestPoolSizedAtOpen(t *testing.T) {
	withSmallMorsels(t, 256)
	// 11 sealed chunks of ascending ids plus a hot tail (ids 2817..3000),
	// which has no zone map and so always survives pruning.
	cat := largeDiffFixture(t, 3000)
	for _, c := range []struct {
		q       string
		workers int
		scan    int // pool of the stage that reads the table
	}{
		{"SELECT id FROM t", 4, 4},
		{"SELECT id FROM t", 1, 1},
		{"SELECT id FROM t", 64, 12},
		{"SELECT name FROM g", 4, 1},
		{"SELECT id, x FROM t WHERE id >= 2990", 4, 1},             // the tail alone
		{"SELECT id, x FROM t WHERE id >= 300 AND id < 320", 4, 2}, // one sealed chunk + the tail
		{"SELECT id, x FROM t WHERE id >= 250 AND id < 320", 4, 3},
		{"SELECT grp, sum(x) FROM t GROUP BY grp", 4, 4},
		{"SELECT count(*), sum(x) FROM t WHERE id >= 2990", 4, 1},
	} {
		op, err := buildParallel(t, cat, c.q, c.workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		walkVec(op.(*rowAdapter).V, func(v VectorOperator) {
			var ps *pipeSet
			switch o := v.(type) {
			case *VecGather:
				ps = &o.pipeSet
				if (o.done != nil) != (o.n > 1) {
					t.Errorf("%q: gather pool=%d but goroutines started=%v", c.q, o.n, o.done != nil)
				}
			case *VecHashAggregate:
				ps = &o.pipeSet
			default:
				return
			}
			if _, isScan := ps.pipes[0].src.(*vecMorselScan); isScan && ps.n != c.scan {
				t.Errorf("%q at %d workers: pool=%d, want %d", c.q, c.workers, ps.n, c.scan)
			}
		})
		if _, err := op.Next(); err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatherPreservesScanOrder checks the ordered gather's core contract:
// a parallel scan emits rows in exactly the serial scan's order even
// without ORDER BY.
func TestGatherPreservesScanOrder(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 5000)
	serialOp, err := rowPlan(t, cat, "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(serialOp)
	if err != nil {
		t.Fatal(err)
	}
	parOp, err := buildParallel(t, cat, "SELECT id FROM t", 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(parOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("row count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i][0].I != got[i][0].I {
			t.Fatalf("row %d: serial id %d, parallel id %d — gather broke scan order", i, want[i][0].I, got[i][0].I)
		}
	}
}

// TestParallelCancellation checks that a canceled statement context stops a
// query mid-flight, through the gather, the partial aggregate, the join
// probe and the sort, in the pooled and the inline (one-worker) claim loops.
func TestParallelCancellation(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 20000)
	for _, q := range []string{
		"SELECT id, x FROM t WHERE x > -10000",
		"SELECT grp, sum(x), avg(y) FROM t GROUP BY grp",
		"SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp",
		"SELECT id, x FROM t ORDER BY x DESC LIMIT 5",
	} {
		for _, workers := range []int{1, 2, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already canceled: the first interrupt check must fire
			op, err := buildParallel(t, cat, q, workers)
			if err != nil {
				t.Fatal(err)
			}
			BindContext(op, ctx)
			_, drainErr := Drain(op)
			if drainErr == nil {
				t.Fatalf("%q p=%d: want context error, got full result", q, workers)
			}
			if drainErr != context.Canceled {
				t.Fatalf("%q p=%d: err = %v, want context.Canceled", q, workers, drainErr)
			}
		}
	}
}

// TestParallelCancellationMidProbe cancels a join while it streams: the
// probe checks the context per batch and the gather per morsel, so the
// statement ends with the context error within one morsel of join output
// (each left row matches at most one g row).
func TestParallelCancellationMidProbe(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 20000)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		op, err := buildParallel(t, cat, "SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp", workers)
		if err != nil {
			t.Fatal(err)
		}
		BindContext(op, ctx)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if row, err := op.Next(); err != nil || row == nil {
				t.Fatalf("p=%d row %d: %v, %v", workers, i, row, err)
			}
		}
		cancel()
		after := 0
		for {
			row, err := op.Next()
			if err != nil {
				if err != context.Canceled {
					t.Fatalf("p=%d: err = %v, want context.Canceled", workers, err)
				}
				break
			}
			if row == nil {
				t.Fatalf("p=%d: join ran to completion after cancellation", workers)
			}
			after++
		}
		if after > 256 {
			t.Errorf("p=%d: %d rows after cancel, want at most one morsel (256)", workers, after)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInlineClaimLoopObservesContext cancels a one-worker scan between
// morsels: the leaf is not asked again, so it is the gather's own claim loop
// that must see the canceled context.
func TestInlineClaimLoopObservesContext(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 2000)
	op, err := buildParallel(t, cat, "SELECT id FROM t", 1)
	if err != nil {
		t.Fatal(err)
	}
	g := op.(*rowAdapter).V.(*VecGather)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.SetContext(ctx) // the gather only: the scan below stays unbound
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rows := 0
	for {
		b, err := g.NextBatch()
		if err != nil {
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if b == nil {
			t.Fatalf("scan ran to completion (%d rows) after cancellation", rows)
		}
		rows += b.NumRows()
		cancel()
	}
	if rows != 256 {
		t.Fatalf("claim loop stopped after %d rows, want exactly the first morsel (256)", rows)
	}
}

// TestParallelEarlyClose checks that abandoning a cursor (LIMIT semantics)
// shuts the pool down cleanly — over a scan, a join and a top-k — that the
// rows read first are the row reference's, that a capped scan stops
// claiming morsels instead of draining the table, that the inline loop has
// nothing to shut down, and that no goroutine outlives the statement.
func TestParallelEarlyClose(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 20000)
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		q    string
		rows int // read before the early Close
	}{
		{"SELECT id FROM t LIMIT 3", 3},
		{"SELECT t.id, g.name FROM t JOIN g ON t.grp = g.grp LIMIT 1", 1},
		{"SELECT id FROM t ORDER BY x DESC LIMIT 1", 1},
	} {
		ref, err := rowPlan(t, cat, c.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Drain(ref)
		if err != nil || len(want) != c.rows {
			t.Fatalf("%q: row reference %v, %v", c.q, want, err)
		}
		for _, workers := range []int{1, 2, 4} {
			op, err := buildParallel(t, cat, c.q, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.rows; i++ {
				row, err := op.Next()
				if err != nil || row == nil {
					t.Fatalf("%q p=%d row %d: %v, %v", c.q, workers, i, row, err)
				}
				compareRuns(t, c.q, fmt.Sprintf("p=%d row %d", workers, i), want[i:i+1], []Row{row}, nil, nil)
			}
			g := op.(*rowAdapter).V.(*VecGather)
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			if g.done != nil {
				t.Errorf("%q p=%d: Close left the pool running", c.q, workers)
			}
			if s, ok := g.pipes[0].src.(*vecMorselScan); ok {
				if claimed := s.shared.cursor.Load(); claimed >= s.NumMorsels() {
					t.Errorf("%q p=%d: the scan claimed all %d morsels", c.q, workers, s.NumMorsels())
				}
			}
			// Close is idempotent.
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the statements, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAggStateMerge exercises the partial-state recombination directly:
// splitting a value stream across partials and merging must agree with the
// serial fold for every aggregate kind, including NULL skipping and empty
// partials.
func TestAggStateMerge(t *testing.T) {
	vals := []expr.Value{
		expr.Float(1.5), expr.Null(), expr.Float(-2.25), expr.Float(4),
		expr.Float(10.5), expr.Null(), expr.Float(0), expr.Float(-7.75),
		expr.Float(3.125), expr.Float(8),
	}
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax, AggVar, AggStdDev}
	for _, kind := range kinds {
		var serial aggState
		for _, v := range vals {
			if err := serial.update(kind, v); err != nil {
				t.Fatal(err)
			}
		}
		for _, split := range []int{0, 1, 3, len(vals)} {
			var a, b, empty aggState
			for i, v := range vals {
				st := &a
				if i >= split {
					st = &b
				}
				if err := st.update(kind, v); err != nil {
					t.Fatal(err)
				}
			}
			var merged aggState
			for _, part := range []*aggState{&empty, &a, &b} {
				if err := merged.merge(part, kind); err != nil {
					t.Fatal(err)
				}
			}
			want, got := serial.final(kind), merged.final(kind)
			if !closeValue(want, got) {
				t.Errorf("kind %d split %d: serial %v vs merged %v", kind, split, want, got)
			}
		}
	}
	// MIN/MAX preserve the argument kind through merges (strings here).
	var l, r aggState
	for _, s := range []string{"pear", "apple"} {
		if err := l.update(AggMin, expr.Str(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.update(AggMin, expr.Str("banana")); err != nil {
		t.Fatal(err)
	}
	if err := l.merge(&r, AggMin); err != nil {
		t.Fatal(err)
	}
	if got := l.final(AggMin); got.S != "apple" {
		t.Errorf("string MIN merge = %v, want apple", got)
	}
}

// TestParallelReExecute checks that a parallel plan can be opened and
// drained twice (prepared-statement style) and sees fresh snapshots.
func TestParallelReExecute(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 3000)
	st, err := sql.Parse("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildSelect(cat, st.(*sql.SelectStmt), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(second) != 1 || first[0][0].I != second[0][0].I {
		t.Fatalf("re-executed parallel plan disagrees: %v vs %v", first, second)
	}
}
