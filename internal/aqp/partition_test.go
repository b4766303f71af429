package aqp

import (
	"strings"
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
	"datalaws/internal/synth"
	"datalaws/internal/table"
)

// partitionedFixture is the LOFAR table range-partitioned by source into
// p0 (< 10), p1 (< 20) and rest, with a model family fitted on nu > 0.13
// only and p1's member dropped: p1 has no model and answers from raw rows,
// the rest answer from their models inside the fitted region and from raw
// rows outside it.
func partitionedFixture(t *testing.T) (*table.Catalog, *modelstore.Store) {
	t.Helper()
	d := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: 30, ObsPerSource: 40, NoiseFrac: 0.03, AnomalyFrac: 0, Seed: 21,
	})
	flat, err := synth.LOFARTable("flat", d)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := table.NewPartitioned("m", flat.Schema(), "source", []table.RangePartition{
		{Name: "p0", Upper: 10}, {Name: "p1", Upper: 20}, {Name: "rest", Max: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]expr.Value, len(d.Source))
	for i := range rows {
		rows[i] = []expr.Value{expr.Int(d.Source[i]), expr.Float(d.Nu[i]), expr.Float(d.Intensity[i])}
	}
	if _, err := pt.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	cat := table.NewCatalog()
	if err := cat.Add(flat); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddPartitioned(pt); err != nil {
		t.Fatal(err)
	}
	w, _ := expr.Parse("nu > 0.13")
	store := modelstore.NewStore()
	if _, err := store.CapturePartitioned(pt, modelstore.Spec{
		Name: "law", Table: "m",
		Formula: "intensity ~ q * pow(nu, beta)",
		Inputs:  []string{"nu"}, GroupBy: "source",
		Where: w,
		Start: map[string]float64{"q": 1, "beta": -1},
	}); err != nil {
		t.Fatal(err)
	}
	if !store.Drop(modelstore.PartitionModelName("law", "p1")) {
		t.Fatal("no family member for p1")
	}
	return cat, store
}

// TestPartitionedApproxBind binds one partitioned APPROX statement that
// meets every route: p0 is pruned, p1 (no model) answers from raw rows,
// and rest answers as a hybrid of its model inside nu > 0.13 and its raw
// rows outside it.
func TestPartitionedApproxBind(t *testing.T) {
	cat, store := partitionedFixture(t)
	const q = "SELECT source, count(*), sum(intensity) FROM %s WHERE source >= 10 %sGROUP BY source ORDER BY source"
	approx := func(extra string) *Plan {
		t.Helper()
		st, err := sql.Parse("APPROX " + strings.Replace(strings.Replace(q, "%s", "m", 1), "%s", extra, 1))
		if err != nil {
			t.Fatal(err)
		}
		// The partial fit's R² sits below the default trust threshold on
		// three narrow bands; this test is about routing, not fit quality.
		opts := DefaultOptions()
		opts.Policy.MinMedianR2 = 0.5
		plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), opts)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	exact := func(extra string) []exec.Row {
		t.Helper()
		st, err := sql.Parse(strings.Replace(strings.Replace(q, "%s", "flat", 1), "%s", extra, 1))
		if err != nil {
			t.Fatal(err)
		}
		op, err := exec.BuildSelect(cat, st.(*sql.SelectStmt), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	plan := approx("")
	if !plan.Hybrid || plan.PartsTotal != 3 || plan.PartsPruned != 1 {
		t.Fatalf("hybrid=%v parts %d/%d pruned, want hybrid and 1/3", plan.Hybrid, plan.PartsPruned, plan.PartsTotal)
	}
	if plan.Model.Spec.Name != modelstore.PartitionModelName("law", "rest") {
		t.Fatalf("model = %s", plan.Model.Spec.Name)
	}
	const wantPlan = `Vectorized
  Gather workers=1 (morsel-driven, in order)
    VecSort keys=1 workers=1 (per-worker runs, one merge)
      VecProject source, count(), sum(intensity), $ord0
        VecHashAggregate group=[source] aggs=2 workers=1 (partial+merge)
          VecFilter (source >= 10)
            VecConcat (2 children)
              Gather workers=1 (morsel-driven, in order)
                VecProject m.source, m.nu, m.intensity
                  VecMorselScan m#p1 (407 rows)
              Gather workers=1 (morsel-driven, in order)
                VecConcat (2 children)
                  Gather workers=1 (morsel-driven, in order)
                    VecFilter (nu > 0.13)
                      VecModelScan model=law#rest grid=11×4 (exact legal set, zero IO)
                  Gather workers=1 (morsel-driven, in order)
                    VecFilter NOT ((nu > 0.13))
                      VecProject m.source, m.nu, m.intensity
                        VecMorselScan m#rest (471 rows)
`
	if got := exec.PlanString(plan.Op); got != wantPlan {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, wantPlan)
	}
	if err := exec.OnePipeline(exec.PlanString(plan.Op)); err != nil {
		t.Fatal(err)
	}
	got, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	want, low := exact(""), exact("AND nu < 0.13 ")
	if len(got) != len(want) || len(got) != 21 || len(low) != 21 {
		t.Fatalf("%d groups, exact has %d and %d; want 21", len(got), len(want), len(low))
	}
	for i, r := range got {
		if r[0].I != want[i][0].I {
			t.Fatalf("row %d: source %v, want %v", i, r[0], want[i][0])
		}
		if r[0].I < 20 {
			// p1 answers from raw rows: exact to the last bit.
			if r[1] != want[i][1] || r[2] != want[i][2] {
				t.Fatalf("source %d (raw partition): %v, want %v", r[0].I, r, want[i])
			}
			continue
		}
		// rest: its raw rows below the fitted region, plus one model tuple
		// per legal (source, nu) combination inside it, the three bands
		// above 0.13.
		if r[1].I != low[i][1].I+3 {
			t.Fatalf("source %d: count %v, want %v raw + 3 modelled", r[0].I, r[1], low[i][1])
		}
	}

	// Outside the fitted region every surviving partition is raw, so the
	// whole answer is exact.
	plan = approx("AND nu < 0.13 ")
	got, err = exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	for i := range low {
		for c := range low[i] {
			if got[i][c] != low[i][c] {
				t.Fatalf("row %d col %d: %v, want %v", i, c, got[i][c], low[i][c])
			}
		}
	}

	// A point query on a modelled partition outside its domain is provably
	// empty: the model side becomes an empty VALUES.
	plan = approx("AND nu = 0.5 ")
	if s := exec.PlanString(plan.Op); !strings.Contains(s, "VecValuesScan (0 rows)") {
		t.Fatalf("plan:\n%s", s)
	}
}
