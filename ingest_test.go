package datalaws

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"datalaws/internal/expr"
)

func TestEngineAppendBatch(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	rows := make([][]expr.Value, 100)
	for i := range rows {
		rows[i] = []expr.Value{expr.Int(int64(i % 5)), expr.Float(0.15), expr.Float(float64(i))}
	}
	n, err := e.Append("m", rows)
	if err != nil || n != 100 {
		t.Fatalf("Append = %d, %v", n, err)
	}
	res := e.MustExec("SELECT count(*) FROM m")
	if res.Rows[0][0].I != 100 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if _, err := e.Append("nope", rows); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable, got %v", err)
	}
	// A bad row mid-batch keeps the prefix and reports the count appended.
	bad := [][]expr.Value{
		{expr.Int(1), expr.Float(0.1), expr.Float(1)},
		{expr.Int(2), expr.Float(0.2)}, // arity mismatch
	}
	n, err = e.Append("m", bad)
	if err == nil || n != 1 {
		t.Fatalf("partial append = %d, %v", n, err)
	}
	if got := e.MustExec("SELECT count(*) FROM m").Rows[0][0].I; got != 101 {
		t.Fatalf("count after partial append = %d", got)
	}
}

func TestEngineCopyFrom(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	i := 0
	src := func() ([]expr.Value, error) {
		if i >= 3000 { // multiple internal batches
			return nil, nil
		}
		i++
		return []expr.Value{expr.Int(int64(i)), expr.Float(0.12), expr.Float(1)}, nil
	}
	n, err := e.CopyFrom("m", src)
	if err != nil || n != 3000 {
		t.Fatalf("CopyFrom = %d, %v", n, err)
	}
	// A failing source flushes what it produced before the error.
	j := 0
	n, err = e.CopyFrom("m", func() ([]expr.Value, error) {
		if j == 10 {
			return nil, fmt.Errorf("boom")
		}
		j++
		return []expr.Value{expr.Int(0), expr.Float(0), expr.Float(0)}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || n != 10 {
		t.Fatalf("CopyFrom after source error = %d, %v", n, err)
	}
	if got := e.MustExec("SELECT count(*) FROM m").Rows[0][0].I; got != 3010 {
		t.Fatalf("count = %d", got)
	}
}

func TestDropTableStatement(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	e.MustExec("INSERT INTO m VALUES (1, 0.12, 2), (1, 0.15, 2), (1, 0.16, 2), (1, 0.18, 2), (2, 0.12, 5), (2, 0.15, 5), (2, 0.16, 5), (2, 0.18, 5)")
	e.MustExec(`FIT MODEL flat ON m AS 'intensity ~ c' INPUTS (nu) GROUP BY source`)
	res := e.MustExec("DROP TABLE m")
	if !strings.Contains(res.Info, "dropped") || !strings.Contains(res.Info, "flat") {
		t.Fatalf("info = %q", res.Info)
	}
	if _, ok := e.Catalog.Get("m"); ok {
		t.Fatal("table survived DROP TABLE")
	}
	// Cascaded: the model went with its table.
	if _, ok := e.Models.Get("flat"); ok {
		t.Fatal("model survived DROP TABLE")
	}
	if _, err := e.Exec("DROP TABLE m"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable, got %v", err)
	}
}

// TestPlanCacheInvalidationOnDDL is the satellite bugfix: a cached plan must
// not survive DROP TABLE / re-CREATE with a different schema.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT)")
	e.MustExec("INSERT INTO t VALUES (1), (2)")
	if got := e.MustExec("SELECT count(*) FROM t").Rows[0][0].I; got != 2 {
		t.Fatalf("count = %d", got)
	}
	if e.plans.Len() != 1 {
		t.Fatalf("cache len = %d", e.plans.Len())
	}
	e.MustExec("DROP TABLE t")
	// Re-create with a different schema; the same SQL text must compile
	// fresh against it instead of reusing the old plan.
	e.MustExec("CREATE TABLE t (a BIGINT, b DOUBLE)")
	e.MustExec("INSERT INTO t VALUES (1, 0.5)")
	res := e.MustExec("SELECT count(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count after re-create = %v", res.Rows[0][0])
	}
	// Queries against the new column work — proof the catalog epoch moved
	// the cache off the old schema.
	if got := e.MustExec("SELECT b FROM t").Rows[0][0].F; got != 0.5 {
		t.Fatalf("b = %v", got)
	}
}

// TestPlanCacheInvalidationOnRefit: the model epoch must invalidate cached
// plans on FIT / REFIT / DROP MODEL, so unprepared APPROX traffic re-plans.
func TestPlanCacheInvalidationOnRefit(t *testing.T) {
	e, _ := loadLOFAR(t, 8, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	q := "APPROX SELECT intensity FROM measurements WHERE source = 3 AND nu = 0.16"
	r1 := e.MustExec(q)
	if r1.ModelVersion != 1 {
		t.Fatalf("version = %d", r1.ModelVersion)
	}
	e.MustExec("REFIT MODEL spectra")
	r2 := e.MustExec(q)
	if r2.ModelVersion != 2 {
		t.Fatalf("version after refit = %d", r2.ModelVersion)
	}
	e.MustExec("DROP MODEL spectra")
	if _, err := e.Exec(q); err == nil {
		t.Fatal("cached plan survived DROP MODEL")
	}
}

// TestApproxFallbackExact: with FallbackExact, APPROX traffic is answered
// exactly when no trusted model covers it instead of failing.
func TestApproxFallbackExact(t *testing.T) {
	e, _ := loadLOFAR(t, 8, 40)
	q := "APPROX SELECT avg(intensity) FROM measurements WHERE nu = 0.15"
	if _, err := e.Exec(q); !errors.Is(err, ErrNoModel) {
		t.Fatalf("without fallback want ErrNoModel, got %v", err)
	}
	e.AQP.FallbackExact = true
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactFallback || res.Model != "" {
		t.Fatalf("fallback = %v model = %q", res.ExactFallback, res.Model)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// A statement whose exact plan cannot be built either (it projects a
	// model-only bound column) reports the approximate-planning error.
	if _, err := e.Exec("APPROX SELECT intensity_lo FROM measurements WHERE nu = 0.15 WITH ERROR"); !errors.Is(err, ErrNoModel) {
		t.Fatalf("model-only column with fallback: want ErrNoModel, got %v", err)
	}
	// Once a model exists, the same statement routes back through it.
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	res = e.MustExec(q)
	if res.ExactFallback || res.Model != "spectra" {
		t.Fatalf("fallback = %v model = %q", res.ExactFallback, res.Model)
	}
}

// TestConcurrentIngestAndApproxQueries exercises the tentpole concurrency
// claim under the race detector: batched appends through the engine API,
// unprepared exact scans, and prepared APPROX point queries all in flight.
func TestConcurrentIngestAndApproxQueries(t *testing.T) {
	e, _ := loadLOFAR(t, 10, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	e.AQP.Policy.MaxStalenessFrac = 0 // writers blow past the staleness bar

	stmt, err := e.Prepare("APPROX SELECT intensity FROM measurements WHERE source = ? AND nu = ?")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 50; i++ {
			batch := make([][]expr.Value, 40)
			for j := range batch {
				batch[j] = []expr.Value{expr.Int(int64(j%10 + 1)), expr.Float(0.15), expr.Float(2)}
			}
			if _, err := e.Append("measurements", batch); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := stmt.Query(ctx, int64(r%10+1), 0.15)
				if err != nil {
					errs <- err
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				rows.Close()
				if _, err := e.Exec("SELECT count(*) FROM measurements WHERE nu = 0.15"); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
