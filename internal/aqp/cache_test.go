package aqp

import (
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/synth"
)

func approxAvgAt012(t *testing.T) *sql.SelectStmt {
	t.Helper()
	st, err := sql.Parse("APPROX SELECT avg(intensity) FROM measurements WHERE nu = 0.12")
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sql.SelectStmt)
}

func TestCacheHitsOnRepeatedQueries(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	sel := approxAvgAt012(t)
	for i := 0; i < 3; i++ {
		plan, err := BuildApproxSelect(cat, store, sel, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Drain(plan.Op); err != nil {
			t.Fatal(err)
		}
	}
	// The first query builds the one state from the whole table; the next
	// two read nothing.
	if builds, rows := opts.Cache.Stats(); builds != 1 || rows != tb.NumRows() {
		t.Fatalf("builds, rows = %d, %d; want 1, %d", builds, rows, tb.NumRows())
	}
}

func TestCacheExtendedByAppend(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	sel := approxAvgAt012(t)
	if _, err := BuildApproxSelect(cat, store, sel, opts); err != nil {
		t.Fatal(err)
	}
	_, before := opts.Cache.Stats()
	// An append of k rows is read as k rows by the next bind, never as a
	// rebuild of the grown table. The appended combination must be legal
	// and its new frequency enumerated.
	const k = 3
	for i := 0; i < k; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.99), expr.Float(5)}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := BuildApproxSelect(cat, store, sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if builds, rows := opts.Cache.Stats(); builds != 1 || rows-before != k {
		t.Fatalf("after append: builds = %d, rows read = %d; want 1, %d", builds, rows-before, k)
	}
	doms, legal, _, err := opts.Cache.Get(tb, plan.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !domainContains(doms[0], 0.99) {
		t.Fatal("extended domain missing the appended value")
	}
	if !legal.Contains(1, []float64{0.99}) {
		t.Fatal("extended legal set missing the appended combination")
	}
}

func TestCacheSurvivesRefit(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	sel := approxAvgAt012(t)
	if _, err := BuildApproxSelect(cat, store, sel, opts); err != nil {
		t.Fatal(err)
	}
	builds0, rows0 := opts.Cache.Stats()
	if _, err := store.Refit("spectra", tb); err != nil {
		t.Fatal(err)
	}
	// A new model version over the same rows: the state is reused as is.
	plan, err := BuildApproxSelect(cat, store, sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Model.Version != 2 {
		t.Fatalf("plan bound model version %d, want the refit's 2", plan.Model.Version)
	}
	if builds, rows := opts.Cache.Stats(); builds != builds0 || rows != rows0 {
		t.Fatalf("refit: builds %d -> %d, rows read %d -> %d; want no change", builds0, builds, rows0, rows)
	}
}

func TestCacheRebuildsAfterDropCreate(t *testing.T) {
	cat, tb, store, m, d := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	sel := approxAvgAt012(t)
	if _, err := BuildApproxSelect(cat, store, sel, opts); err != nil {
		t.Fatal(err)
	}
	// The same name, rows and model spec on a new table object: its state
	// is built once from zero, not extended from the dropped table's.
	cat.Drop("measurements")
	tb2, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(tb2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := opts.Cache.Get(tb2, m); err != nil {
			t.Fatal(err)
		}
	}
	if builds, rows := opts.Cache.Stats(); builds != 2 || rows != tb.NumRows()+tb2.NumRows() {
		t.Fatalf("builds, rows = %d, %d; want 2, %d", builds, rows, tb.NumRows()+tb2.NumRows())
	}
}

func TestNilCacheWorks(t *testing.T) {
	cat, _, store, _, _ := fixture(t)
	opts := DefaultOptions() // Cache nil
	st, _ := sql.Parse("APPROX SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.12")
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil || len(rows) != 1 {
		t.Fatalf("%v %v", rows, err)
	}
	var nilCache *Cache
	if b, r := nilCache.Stats(); b != 0 || r != 0 {
		t.Fatal("nil cache stats")
	}
}
