package datalaws

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/wireerr"
)

// fillSequential creates table big(a BIGINT, b DOUBLE) with n rows.
func fillSequential(t *testing.T, e *Engine, n int) {
	t.Helper()
	e.MustExec("CREATE TABLE big (a BIGINT, b DOUBLE)")
	tb, _ := e.Catalog.Get("big")
	for i := 0; i < n; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(int64(i)), expr.Float(float64(i) * 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryStreamsAndScans(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT, s VARCHAR)")
	e.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	rows, err := e.Query(context.Background(), "SELECT a, s FROM t ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 2 || got[0] != "a" || got[1] != "s" {
		t.Fatalf("columns = %v", got)
	}
	var as []int64
	var ss []string
	for rows.Next() {
		var a int64
		var s string
		if err := rows.Scan(&a, &s); err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
		ss = append(ss, s)
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if len(as) != 3 || as[0] != 3 || ss[2] != "x" {
		t.Fatalf("got %v %v", as, ss)
	}
	// Close is idempotent and the cursor auto-closed on exhaustion.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMaterializedRowsOutliveTheCursor: the in-process cursor reuses one
// row buffer (Rows.Row is valid until the next Next), so Engine.Exec and
// Stmt.Exec copy the rows they keep. Over a result of several batches
// every row still holds its own values.
func TestMaterializedRowsOutliveTheCursor(t *testing.T) {
	const n = 5000 // five 1,024-row batches
	e := NewEngine()
	fillSequential(t, e, n)
	check := func(how string, res *Result) {
		t.Helper()
		if len(res.Rows) != n {
			t.Fatalf("%s: %d rows, want %d", how, len(res.Rows), n)
		}
		for i, row := range res.Rows {
			if row[0] != expr.Int(int64(i)) || row[1] != expr.Float(float64(i)*0.5) {
				t.Fatalf("%s: row %d = %v", how, i, row)
			}
		}
	}
	check("Engine.Exec", e.MustExec("SELECT a, b FROM big"))
	st, err := e.Prepare("SELECT a, b FROM big WHERE a >= ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	check("Stmt.Exec", res)
}

func TestQueryEarlyCloseStopsStreaming(t *testing.T) {
	e := NewEngine()
	fillSequential(t, e, 10_000)
	rows, err := e.Query(context.Background(), "SELECT a FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close should report false")
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
}

func TestQueryCancelMidScan(t *testing.T) {
	// The subtest keeps its name from when the engine had several execution
	// modes; mode 0 was the vectorized pipeline, now the only one.
	t.Run("mode=0", func(t *testing.T) {
		e := NewEngine()
		fillSequential(t, e, 200_000)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows, err := e.Query(ctx, "SELECT a, b FROM big")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
			if n == 10 {
				cancel()
			}
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("err = %v after %d rows, want context.Canceled", rows.Err(), n)
		}
		// The scan must stop within one interrupt stride of the cancel,
		// far short of the full table.
		if n >= 100_000 {
			t.Fatalf("scan consumed %d rows after cancellation", n)
		}
	})
}

func TestQueryPreCanceledContext(t *testing.T) {
	e := NewEngine()
	fillSequential(t, e, 50_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Aggregation drains its child during Open, so a pre-canceled context
	// must fail the Query call itself.
	_, err := e.Query(ctx, "SELECT count(*) FROM big")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestApproxQueryCancel(t *testing.T) {
	e, _ := loadLOFAR(t, 200, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := e.Query(ctx, "APPROX SELECT source, nu, intensity FROM measurements")
	if err == nil {
		defer rows.Close()
		for rows.Next() {
		}
		err = rows.Err()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPreparedRebinding(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT, b DOUBLE)")
	ins, err := e.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i := 1; i <= 5; i++ {
		if _, err := ins.Exec(context.Background(), i, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := e.Prepare("SELECT b FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		res, err := sel.Exec(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].F != float64(i)*1.5 {
			t.Fatalf("a=%d: rows = %v", i, res.Rows)
		}
	}
	// Arity mismatches are rejected at bind time.
	if _, err := sel.Exec(context.Background()); err == nil {
		t.Fatal("want arity error for missing argument")
	}
	if _, err := sel.Exec(context.Background(), 1, 2); err == nil {
		t.Fatal("want arity error for extra argument")
	}
}

func TestPreparedApproxPointLookupRebinds(t *testing.T) {
	e, d := loadLOFAR(t, 20, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	stmt, err := e.Prepare("APPROX SELECT intensity FROM measurements WHERE source = ? AND nu = ?")
	if err != nil {
		t.Fatal(err)
	}
	for src := 1; src <= 10; src++ {
		res, err := stmt.Exec(context.Background(), src, 0.15)
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("source %d: rows = %v", src, res.Rows)
		}
		if res.Model != "spectra" {
			t.Fatalf("source %d: model = %q", src, res.Model)
		}
		truth := d.Truth[int64(src)]
		want := truth.P * math.Pow(0.15, truth.Alpha)
		if got := res.Rows[0][0].F; math.Abs(got-want)/want > 0.2 {
			t.Fatalf("source %d: got %g want %g", src, got, want)
		}
		// The prepared plan must match a one-shot unprepared execution.
		oneShot := e.MustExec(fmt.Sprintf(
			"APPROX SELECT intensity FROM measurements WHERE source = %d AND nu = 0.15", src))
		if math.Abs(oneShot.Rows[0][0].F-res.Rows[0][0].F) > 1e-12 {
			t.Fatalf("source %d: prepared %g vs unprepared %g", src, res.Rows[0][0].F, oneShot.Rows[0][0].F)
		}
	}
}

func TestPreparedApproxSurvivesAppends(t *testing.T) {
	e, _ := loadLOFAR(t, 20, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	stmt, err := e.Prepare("APPROX SELECT intensity FROM measurements WHERE source = ? AND nu = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(context.Background(), 3, 0.15); err != nil {
		t.Fatal(err)
	}
	// Append a measurement at a brand-new frequency: the table version
	// bump must invalidate the prepared domains so the new grid point is
	// answerable without re-preparing.
	e.MustExec("INSERT INTO measurements VALUES (3, 0.45, 1.0)")
	res, err := stmt.Exec(context.Background(), 3, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows after append = %v", res.Rows)
	}
}

func TestConcurrentSessions(t *testing.T) {
	e, _ := loadLOFAR(t, 20, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	stmt, err := e.Prepare("APPROX SELECT intensity FROM measurements WHERE source = ? AND nu = ?")
	if err != nil {
		t.Fatal(err)
	}
	const (
		sessions = 8
		perSess  = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, sessions+1)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perSess; i++ {
				// Shared prepared statement, rebound per call.
				res, err := stmt.Exec(ctx, (g+i)%20+1, 0.15)
				if err != nil {
					errs <- fmt.Errorf("session %d approx: %w", g, err)
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("session %d approx rows = %v", g, res.Rows)
					return
				}
				// Unprepared exact query through the shared plan cache.
				rows, err := e.Query(ctx, "SELECT count(*) FROM measurements WHERE source = ?", g+1)
				if err != nil {
					errs <- fmt.Errorf("session %d exact: %w", g, err)
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					errs <- fmt.Errorf("session %d exact err: %w", g, err)
					return
				}
			}
		}(g)
	}
	// One writer session appends concurrently (staying under the staleness
	// policy's 20 % growth budget: 800 rows × 20 % = 160 appends allowed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := e.ExecContext(context.Background(),
				"INSERT INTO measurements VALUES (?, ?, ?)", i%20+1, 0.12, 2.5); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSentinelErrors(t *testing.T) {
	e := NewEngine()
	for _, q := range []string{
		"SELECT a FROM missing",
		"INSERT INTO missing VALUES (1)",
		"FIT MODEL x ON missing AS 'y ~ a*x' INPUTS (x)",
		"SELECT a FROM missing JOIN also_missing ON a = b",
	} {
		if _, err := e.Exec(q); !errors.Is(err, ErrUnknownTable) {
			t.Errorf("Exec(%q): err = %v, want ErrUnknownTable", q, err)
		}
	}
	for _, q := range []string{
		"DROP MODEL none",
		"REFIT MODEL none",
	} {
		if _, err := e.Exec(q); !errors.Is(err, ErrUnknownModel) {
			t.Errorf("Exec(%q): err = %v, want ErrUnknownModel", q, err)
		}
	}
	if _, _, err := e.TableInfo("missing"); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("TableInfo: err = %v, want ErrUnknownTable", err)
	}
	if _, err := e.ApproxPoint("none", 0, nil, 0.95); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("ApproxPoint: err = %v, want ErrUnknownModel", err)
	}
}

func TestPlanCacheReusesStatements(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT)")
	e.MustExec("INSERT INTO t VALUES (1), (2)")
	const q = "SELECT a FROM t WHERE a = ?"
	s1, err := e.stmt(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.stmt(q)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("same SQL text should hit the plan cache")
	}
	if e.plans.Len() != 1 {
		t.Fatalf("cache len = %d", e.plans.Len())
	}
	// DDL/DML texts are not cached.
	if _, err := e.Exec("INSERT INTO t VALUES (3)"); err != nil {
		t.Fatal(err)
	}
	if e.plans.Len() != 1 {
		t.Fatalf("cache len after insert = %d", e.plans.Len())
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	a, b, d := &Stmt{}, &Stmt{}, &Stmt{}
	c.put("a", a, 0, 0)
	c.put("b", b, 0, 0)
	if c.get("a", 0, 0) != a { // touch a so b is LRU
		t.Fatal("miss on a")
	}
	c.put("d", d, 0, 0)
	if c.get("b", 0, 0) != nil {
		t.Fatal("b should have been evicted")
	}
	if c.get("a", 0, 0) != a || c.get("d", 0, 0) != d {
		t.Fatal("a and d should remain")
	}
	// An epoch mismatch — DDL or a model-catalog change since compile —
	// discards the entry instead of serving a stale plan.
	if c.get("a", 1, 0) != nil {
		t.Fatal("catalog epoch bump should invalidate")
	}
	if c.Len() != 1 {
		t.Fatalf("len after invalidation = %d", c.Len())
	}
	c.put("a", a, 1, 1)
	if c.get("a", 1, 2) != nil {
		t.Fatal("model epoch bump should invalidate")
	}
}

func TestQueryOnDDLReturnsInfo(t *testing.T) {
	e := NewEngine()
	rows, err := e.Query(context.Background(), "CREATE TABLE t (a BIGINT)")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Info == "" || rows.Next() {
		t.Fatalf("Info = %q, Next = %v", rows.Info, rows.Next())
	}
	// Parameters bind inside utility statements too.
	if _, err := e.ExecContext(context.Background(), "INSERT INTO t VALUES (?)", 7); err != nil {
		t.Fatal(err)
	}
	res := e.MustExec("SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestScanTargets(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT, b DOUBLE, s VARCHAR, c BOOLEAN)")
	e.MustExec("INSERT INTO t VALUES (4, 2.5, 'hi', TRUE)")
	rows, err := e.Query(context.Background(), "SELECT a, b, s, c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var a int64
	var b float64
	var s string
	var c bool
	if err := rows.Scan(&a, &b, &s, &c); err != nil {
		t.Fatal(err)
	}
	if a != 4 || b != 2.5 || s != "hi" || !c {
		t.Fatalf("scanned %v %v %v %v", a, b, s, c)
	}
	// INT coerces into *float64 and anything fits *any.
	var af float64
	var anyB, anyS, anyC any
	if err := rows.Scan(&af, &anyB, &anyS, &anyC); err != nil {
		t.Fatal(err)
	}
	if af != 4 || anyB.(float64) != 2.5 || anyS.(string) != "hi" || anyC.(bool) != true {
		t.Fatalf("scanned %v %v %v %v", af, anyB, anyS, anyC)
	}
	if err := rows.Scan(&a); err == nil {
		t.Fatal("want arity error")
	}
	if err := rows.Scan(&s, &b, &s, &c); err == nil {
		t.Fatal("want kind mismatch error")
	}
}

// TestExplainShowsTheRouteThatRuns: EXPLAIN takes the route the statement
// itself takes, so its report equals the executed statement's, through the
// exact fallback, the point fast path, a hybrid plan and a partitioned plan.
func TestExplainShowsTheRouteThatRuns(t *testing.T) {
	eng := NewEngine()
	eng.AQP.FallbackExact = true
	eng.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)`)
	var rows [][]expr.Value
	for s := 0; s < 4; s++ {
		for i := 1; i <= 8; i++ {
			nu := 0.1 * float64(i)
			rows = append(rows, []expr.Value{expr.Int(int64(s)), expr.Float(nu), expr.Float(float64(s+2)*nu + 1)})
		}
	}
	if _, err := eng.Append("m", rows); err != nil {
		t.Fatal(err)
	}
	check := func(eng *Engine, query, line string) {
		t.Helper()
		explained, err := eng.Exec("EXPLAIN APPROX " + query)
		if err != nil {
			t.Fatalf("EXPLAIN APPROX %s: %v", query, err)
		}
		ran := eng.MustExec("APPROX " + query)
		if explained.Report != ran.Report {
			t.Errorf("%s: EXPLAIN reports %+v, the statement ran with %+v", query, explained.Report, ran.Report)
		}
		if !strings.Contains(explained.Info, line) {
			t.Errorf("%s: EXPLAIN lacks %q:\n%s", query, line, explained.Info)
		}
	}
	point := `SELECT intensity FROM m WHERE source = 1 AND nu = 0.1`
	check(eng, point, "exact plan (fallback: no trusted model)")
	if res := eng.MustExec("EXPLAIN APPROX " + point); !res.ExactFallback {
		t.Errorf("fallback EXPLAIN reports %+v", res.Report)
	}

	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	check(eng, point, "PointLookup")
	eng.MustExec(`DROP MODEL law`)
	eng.MustExec(`FIT MODEL upper ON m AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source WHERE nu > 0.45 START (a = 1, b = 0)`)
	check(eng, `SELECT avg(intensity) FROM m WHERE source = 1`, "approximate plan (model upper, hybrid)")

	parted := partedEngine(t, 16, 0.01, 1)
	fitParted(t, parted)
	check(parted, `SELECT intensity FROM m WHERE source = 250 AND nu = 1.5`, "partitions: 15/16 pruned")

	// A replica refuses an exact EXPLAIN as it refuses the SELECT.
	parted.SetReplica(nil)
	if _, err := parted.Exec(`EXPLAIN SELECT intensity FROM m`); !errors.Is(err, wireerr.ErrReplicaReadOnly) {
		t.Errorf("replica EXPLAIN SELECT: %v, want ErrReplicaReadOnly", err)
	}
}
