package aqp

import (
	"strings"
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/sql"
)

// drainParallel plans one APPROX SELECT at the given parallelism and
// materializes it.
func drainParallel(t *testing.T, q string, workers int) ([]exec.Row, *Plan) {
	t.Helper()
	cat, _, store, _, _ := fixture(t)
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallelism = workers
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	return rows, plan
}

// TestParallelModelScanMatchesSerial checks that a grouped zero-IO model
// scan split into per-worker group ranges regenerates exactly the serial
// scan's rows, in the same order — including WITH ERROR bound columns,
// whose gradient scratch is per-worker.
func TestParallelModelScanMatchesSerial(t *testing.T) {
	for _, q := range []string{
		"APPROX SELECT source, nu, intensity FROM measurements",
		"APPROX SELECT source, nu, intensity, intensity_lo, intensity_hi FROM measurements WITH ERROR",
		"APPROX SELECT source, intensity FROM measurements WHERE intensity > 2.0",
	} {
		want, _ := drainParallel(t, q, 1)
		for _, p := range []int{2, 4} {
			got, _ := drainParallel(t, q, p)
			if len(got) != len(want) {
				t.Fatalf("%q p=%d: %d rows vs serial %d", q, p, len(got), len(want))
			}
			for i := range want {
				for c := range want[i] {
					if want[i][c].K != got[i][c].K || want[i][c].String() != got[i][c].String() {
						t.Fatalf("%q p=%d row %d col %d: serial %v vs parallel %v",
							q, p, i, c, want[i][c], got[i][c])
					}
				}
			}
		}
	}
}

// TestParallelModelScanAggregates runs a grouped aggregate over the model
// scan: the partial-aggregate merge must agree with serial execution.
func TestParallelModelScanAggregates(t *testing.T) {
	q := "APPROX SELECT source, avg(intensity), count(*) FROM measurements GROUP BY source ORDER BY source"
	want, _ := drainParallel(t, q, 1)
	got, _ := drainParallel(t, q, 4)
	if len(got) != len(want) {
		t.Fatalf("%d rows vs serial %d", len(got), len(want))
	}
	for i := range want {
		if want[i][0].I != got[i][0].I || want[i][2].I != got[i][2].I {
			t.Fatalf("row %d: serial %v vs parallel %v", i, want[i], got[i])
		}
		rel := (want[i][1].F - got[i][1].F) / want[i][1].F
		if rel > 1e-9 || rel < -1e-9 {
			t.Fatalf("row %d avg: serial %g vs parallel %g", i, want[i][1].F, got[i][1].F)
		}
	}
}

// TestPointLookupStaysSerial pins that a query pushed down to one group does
// not get a worker pool: a full point query bypasses the pipeline, and a
// one-group scan is built as one pipeline whatever the budget, so it runs
// inline.
func TestPointLookupStaysSerial(t *testing.T) {
	_, plan := drainParallel(t, "APPROX SELECT intensity FROM measurements WHERE source = 7 AND nu = 0.15", 4)
	if s := exec.PlanString(plan.Op); strings.Contains(s, "Gather") {
		t.Fatalf("point query built a pipeline:\n%s", s)
	}
	_, plan = drainParallel(t, "APPROX SELECT nu, intensity FROM measurements WHERE source = 7", 4)
	if s := exec.PlanString(plan.Op); !strings.Contains(s, "Gather workers=1") || !strings.Contains(s, "point pushdown") {
		t.Fatalf("one-group scan is not a one-worker plan:\n%s", s)
	}
}
