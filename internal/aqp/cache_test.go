package aqp

import (
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/sql"
)

func TestCacheHitsOnRepeatedQueries(t *testing.T) {
	cat, _, store, _, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	st, _ := sql.Parse("APPROX SELECT avg(intensity) FROM measurements WHERE nu = 0.12")
	sel := st.(*sql.SelectStmt)

	for i := 0; i < 3; i++ {
		plan, err := BuildApproxSelect(cat, store, sel, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Drain(plan.Op); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := opts.Cache.Stats()
	// First query misses both artifacts, the next two hit both.
	if misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4", hits)
	}
}

func TestCacheInvalidatedByAppend(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	st, _ := sql.Parse("APPROX SELECT avg(intensity) FROM measurements WHERE nu = 0.12")
	sel := st.(*sql.SelectStmt)

	if _, err := BuildApproxSelect(cat, store, sel, opts); err != nil {
		t.Fatal(err)
	}
	// Appending a row bumps the table version; the stale entries must not
	// be served. (The appended combination must now be legal, proving the
	// legal set was rebuilt.)
	if err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.99), expr.Float(5)}); err != nil {
		t.Fatal(err)
	}
	plan, err := BuildApproxSelect(cat, store, sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, misses := opts.Cache.Stats()
	if misses != 4 { // 2 initial + 2 after invalidation
		t.Fatalf("misses = %d, want 4", misses)
	}
	// The fresh domain includes the new frequency.
	scanDoms, err := opts.Cache.Domains(tb.Chunks(), plan.Model)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range scanDoms[0].Vals {
		if v == 0.99 {
			found = true
		}
	}
	if !found {
		t.Fatal("rebuilt domain missing the appended value")
	}
}

func TestCacheInvalidatedByRefit(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	st, _ := sql.Parse("APPROX SELECT avg(intensity) FROM measurements WHERE nu = 0.12")
	sel := st.(*sql.SelectStmt)
	if _, err := BuildApproxSelect(cat, store, sel, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Refit("spectra", tb); err != nil {
		t.Fatal(err)
	}
	// Model version changed: the cache key differs, so both artifacts miss.
	if _, err := BuildApproxSelect(cat, store, sel, opts); err != nil {
		t.Fatal(err)
	}
	_, misses := opts.Cache.Stats()
	if misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
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
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Fatal("nil cache stats")
	}
}
