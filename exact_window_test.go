package datalaws

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
)

// Allocation budgets for the shapes of the benchmark's exact mix, scaled
// down to 80k rows — four sealed chunks plus a tail — with the same
// 50k-row window, at a fixed worker budget of 2: a prepared window join,
// window top-k and window range aggregate, the point filter, and the
// whole-table GROUP BY. Budgets sit 20 % above the measured counts
// (≈ 1,345, ≈ 176, ≈ 174 and ≈ 91; on the row join and sort they were
// ≈ 505,000 and ≈ 51,150). None of them may allocate per row: one
// allocation per row would add 50,000 or 80,000.
//
// The GROUP BY's count depends on scheduling: each worker that folds a
// morsel builds its own 1,000 groups (≈ 3 allocations each) for the merge.
// Its budget sits 20 % above the count when both workers do so in every
// run (≈ 7,370; ≈ 4,280 when one worker folds every morsel). The GROUP BY
// of MIN, MAX and VAR, whose folds allocate nothing per row either, is
// budgeted the same way (≈ 7,450; ≈ 4,340).
const (
	windowJoinAllocBudget     = 1620
	windowTopKAllocBudget     = 210
	windowRangeAggAllocBudget = 210
	pointFilterAllocBudget    = 110
	groupByAllocBudget        = 8850
	groupByExtAllocBudget     = 8950
)

// windowFixture loads t(a, g, v) with a the row number and g a key into the
// 1,000-row dim(g, w).
func windowFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.SetParallelism(2)
	e.MustExec("CREATE TABLE t (a BIGINT, g BIGINT, v DOUBLE)")
	e.MustExec("CREATE TABLE dim (g BIGINT, w BIGINT)")
	rng := rand.New(rand.NewSource(29))
	const n = 80_000
	rows := make([][]expr.Value, n)
	for i := range rows {
		rows[i] = []expr.Value{expr.Int(int64(i)), expr.Int(rng.Int63n(1000)), expr.Float(10 + rng.NormFloat64())}
	}
	if _, err := e.Append("t", rows); err != nil {
		t.Fatal(err)
	}
	dim := make([][]expr.Value, 1000)
	for i := range dim {
		dim[i] = []expr.Value{expr.Int(int64(i)), expr.Int(int64(rng.Intn(10)))}
	}
	if _, err := e.Append("dim", dim); err != nil {
		t.Fatal(err)
	}
	tb, err := e.Catalog.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if cv := tb.Chunks(); cv.NumSealed() < 4 {
		t.Fatalf("fixture has %d sealed chunks, want ≥ 4", cv.NumSealed())
	}
	return e
}

// checkWindowAllocs runs a prepared window statement once to warm it, then
// measures it against a budget.
func checkWindowAllocs(t *testing.T, q string, wantRows int, budget float64) {
	checkStmtAllocs(t, q, []any{10_000, 60_000}, wantRows, budget)
}

// checkStmtAllocs runs a prepared statement over the window fixture once
// to warm it, then measures it against a budget.
func checkStmtAllocs(t *testing.T, q string, args []any, wantRows int, budget float64) {
	e := windowFixture(t)
	stmt, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() {
		res, err := stmt.Exec(ctx, args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), wantRows)
		}
	}
	run()
	got := testing.AllocsPerRun(5, run)
	t.Logf("%s: %.0f allocations", q, got)
	if got > budget {
		t.Errorf("%s: %.0f allocations, budget %.0f", q, got, budget)
	}
}

const (
	windowJoin = "SELECT w, count(*), avg(v) FROM t JOIN dim ON t.g = dim.g WHERE a >= ? AND a < ? GROUP BY w"
	windowTopK = "SELECT a, v FROM t WHERE a >= ? AND a < ? ORDER BY v DESC LIMIT 10"

	windowRangeAgg = "SELECT count(*), avg(v) FROM t WHERE a >= ? AND a < ?"
	groupBy        = "SELECT g, count(*), avg(v) FROM t GROUP BY g"
	groupByExt     = "SELECT g, min(v), max(a), var(v) FROM t GROUP BY g"
	pointFilter    = "SELECT v FROM t WHERE a = ?"
)

func TestWindowJoinAllocBudget(t *testing.T) {
	checkWindowAllocs(t, windowJoin, 10, windowJoinAllocBudget)
}

func TestWindowTopKAllocBudget(t *testing.T) {
	checkWindowAllocs(t, windowTopK, 10, windowTopKAllocBudget)
}

func TestWindowRangeAggAllocBudget(t *testing.T) {
	checkWindowAllocs(t, windowRangeAgg, 1, windowRangeAggAllocBudget)
}

func TestPointFilterAllocBudget(t *testing.T) {
	checkStmtAllocs(t, pointFilter, []any{40_000}, 1, pointFilterAllocBudget)
}

func TestGroupByAllocBudget(t *testing.T) {
	checkStmtAllocs(t, groupBy, nil, 1000, groupByAllocBudget)
}

func TestGroupByExtremesAllocBudget(t *testing.T) {
	checkStmtAllocs(t, groupByExt, nil, 1000, groupByExtAllocBudget)
}

// TestWindowPlans pins where the window join and top-k run: as one gathered
// pipeline with no row operator in it.
func TestWindowPlans(t *testing.T) {
	e := windowFixture(t)
	explain := func(q string) string {
		t.Helper()
		res, err := e.Exec("EXPLAIN " + strings.NewReplacer("a >= ?", "a >= 10000", "a < ?", "a < 60000").Replace(q))
		if err != nil {
			t.Fatal(err)
		}
		return res.Info
	}
	for _, q := range []string{windowJoin, windowTopK} {
		if err := exec.OnePipeline(explain(q)); err != nil {
			t.Error(err)
		}
	}
}
