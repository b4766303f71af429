package aqp

import (
	"math"
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
	"datalaws/internal/synth"
	"datalaws/internal/table"
)

func fixture(t *testing.T) (*table.Catalog, *table.Table, *modelstore.Store, *modelstore.CapturedModel, *synth.LOFARData) {
	t.Helper()
	d := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: 25, ObsPerSource: 40, NoiseFrac: 0.03, AnomalyFrac: 0, Seed: 21,
	})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	cat := table.NewCatalog()
	if err := cat.Add(tb); err != nil {
		t.Fatal(err)
	}
	store := modelstore.NewStore()
	m, err := store.Capture(tb, modelstore.Spec{
		Name: "spectra", Table: "measurements",
		Formula: "intensity ~ p * pow(nu, alpha)",
		Inputs:  []string{"nu"}, GroupBy: "source",
		Start: map[string]float64{"p": 1, "alpha": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat, tb, store, m, d
}

func TestEnumerableValues(t *testing.T) {
	_, tb, _, _, _ := fixture(t)
	vals, ok := EnumerableValues(tb.Chunks(), "nu", 100)
	if !ok {
		t.Fatal("nu must be enumerable")
	}
	if len(vals) != 4 || vals[0] != 0.12 || vals[3] != 0.18 {
		t.Fatalf("vals = %v", vals)
	}
	// Intensity is continuous noise: not enumerable at a low threshold.
	if _, ok := EnumerableValues(tb.Chunks(), "intensity", 50); ok {
		t.Fatal("intensity should not be enumerable")
	}
	if _, ok := EnumerableValues(tb.Chunks(), "nosuch", 10); ok {
		t.Fatal("missing column")
	}
}

func TestDomainsForAndGridSize(t *testing.T) {
	_, tb, _, _, _ := fixture(t)
	doms, err := DomainsFor(tb.Chunks(), []string{"nu"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if GridSize(doms) != 4 {
		t.Fatalf("grid = %d", GridSize(doms))
	}
	if _, err := DomainsFor(tb.Chunks(), []string{"intensity"}, 5); err == nil {
		t.Fatal("want non-enumerable error")
	}
}

func TestLegalSetExact(t *testing.T) {
	_, tb, _, _, d := fixture(t)
	ls, err := BuildLegalSet(tb.Chunks(), "source", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	// Every observed combination is legal.
	for i := 0; i < 200; i++ {
		if !ls.Contains(d.Source[i], []float64{d.Nu[i]}) {
			t.Fatalf("observed combo %d rejected", i)
		}
	}
	// A frequency outside the bands is illegal.
	if ls.Contains(d.Source[0], []float64{0.5}) {
		t.Fatal("unobserved combo accepted")
	}
	if ls.Contains(99999, []float64{0.12}) {
		t.Fatal("unknown group accepted")
	}
}

func TestModelScanGeneratesGrid(t *testing.T) {
	_, tb, _, m, d := fixture(t)
	doms, err := DomainsFor(tb.Chunks(), []string{"nu"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewModelScan(m, doms, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainLowered(t, scan)
	if err != nil {
		t.Fatal(err)
	}
	// 25 sources × 4 bands.
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
	cols := scan.Columns()
	if cols[0] != "measurements.source" || cols[2] != "measurements.intensity" {
		t.Fatalf("cols = %v", cols)
	}
	// Predictions track the generating law.
	for _, row := range rows {
		src := row[0].I
		nu := row[1].F
		pred := row[2].F
		truth := d.Truth[src]
		want := truth.P * math.Pow(nu, truth.Alpha)
		if math.Abs(pred-want)/want > 0.15 {
			t.Fatalf("source %d nu %g: pred %g want %g", src, nu, pred, want)
		}
	}
}

func TestModelScanWithErrorBounds(t *testing.T) {
	_, tb, _, m, _ := fixture(t)
	doms, _ := DomainsFor(tb.Chunks(), []string{"nu"}, 100)
	scan, err := NewModelScan(m, doms, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan.WithError = true
	scan.Level = 0.95
	rows, err := drainLowered(t, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Columns()) != 5 {
		t.Fatalf("cols = %v", scan.Columns())
	}
	for _, row := range rows {
		v, lo, hi := row[2].F, row[3].F, row[4].F
		if !(lo < v && v < hi) {
			t.Fatalf("bounds do not bracket: %g [%g, %g]", v, lo, hi)
		}
	}
}

func TestPointLookupMatchesTruth(t *testing.T) {
	_, _, _, m, d := fixture(t)
	for src := int64(1); src <= 25; src++ {
		truth := d.Truth[src]
		v, lo, hi, err := PointLookup(m, src, []float64{0.14}, 0.95, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := truth.P * math.Pow(0.14, truth.Alpha)
		if math.Abs(v-want)/want > 0.2 {
			t.Fatalf("source %d: %g want %g", src, v, want)
		}
		if !(lo < v && v < hi) {
			t.Fatalf("source %d: bounds [%g,%g] around %g", src, lo, hi, v)
		}
	}
	if _, _, _, err := PointLookup(m, 424242, []float64{0.14}, 0.95, 1); err == nil {
		t.Fatal("want error for unknown group")
	}
	if _, _, _, err := PointLookup(m, 1, []float64{0.1, 0.2}, 0.95, 1); err == nil {
		t.Fatal("want error for wrong input arity")
	}
}

func TestAnalyticAggregatesLinearModel(t *testing.T) {
	// Fit a linear model per sensor and compare analytic aggregates with
	// full enumeration.
	d := synth.GenerateSensors(synth.SensorConfig{Sensors: 4, Steps: 200, Noise: 0.01, Seed: 5})
	tb, err := synth.SensorTable("readings", d)
	if err != nil {
		t.Fatal(err)
	}
	store := modelstore.NewStore()
	m, err := store.Capture(tb, modelstore.Spec{
		Name: "lin", Table: "readings",
		Formula: "temp ~ a + b*t",
		Inputs:  []string{"t"}, GroupBy: "sensor",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsLinearInInputs(m) {
		t.Fatal("a + b*t must be linear in t")
	}
	doms, err := DomainsFor(tb.Chunks(), []string{"t"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyticAggregates(m, doms)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate via ModelScan for the reference.
	scan, _ := NewModelScan(m, doms, nil)
	rows, err := drainLowered(t, scan)
	if err != nil {
		t.Fatal(err)
	}
	var sum, mn, mx float64
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		v := r[2].F
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if got.Count != len(rows) {
		t.Fatalf("count %d vs %d", got.Count, len(rows))
	}
	if math.Abs(got.Sum-sum) > 1e-6*math.Abs(sum) {
		t.Fatalf("sum %g vs %g", got.Sum, sum)
	}
	if math.Abs(got.Min-mn) > 1e-9 || math.Abs(got.Max-mx) > 1e-9 {
		t.Fatalf("range [%g,%g] vs [%g,%g]", got.Min, got.Max, mn, mx)
	}
	if math.Abs(got.Avg-sum/float64(len(rows))) > 1e-9 {
		t.Fatalf("avg %g", got.Avg)
	}
}

func TestAnalyticAggregatesRejectsNonlinear(t *testing.T) {
	_, _, _, m, _ := fixture(t)
	if IsLinearInInputs(m) {
		t.Fatal("power law is not linear in nu")
	}
	doms := []Domain{{Col: "nu", Vals: synth.Bands}}
	if _, err := AnalyticAggregates(m, doms); err == nil {
		t.Fatal("want error for nonlinear model")
	}
}

func TestBuildApproxSelectPointQuery(t *testing.T) {
	cat, _, store, _, d := fixture(t)
	// The paper's first example query.
	st, err := sql.Parse("APPROX SELECT intensity FROM measurements WHERE source = 7 AND nu = 0.15")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	truth := d.Truth[7]
	want := truth.P * math.Pow(0.15, truth.Alpha)
	if math.Abs(rows[0][0].F-want)/want > 0.2 {
		t.Fatalf("pred %g want %g", rows[0][0].F, want)
	}
	if plan.Model.Spec.Name != "spectra" || plan.Hybrid {
		t.Fatalf("plan meta: %+v", plan)
	}
}

func TestBuildApproxSelectRangeQuery(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	// The paper's second example query: selection over model output.
	st, _ := sql.Parse("APPROX SELECT source, intensity FROM measurements WHERE nu = 0.12 AND intensity > 3.0")
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	approxRows, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	// Exact reference.
	exactStmt, _ := sql.Parse("SELECT source, intensity FROM measurements WHERE nu = 0.12 AND intensity > 3.0")
	exOp, err := exec.BuildSelect(cat, exactStmt.(*sql.SelectStmt), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	exactRows, err := exec.Drain(exOp)
	if err != nil {
		t.Fatal(err)
	}
	// Exact rows are per-measurement; approx rows are per-source. Compare
	// the source sets.
	exactSources := map[int64]bool{}
	for _, r := range exactRows {
		exactSources[r[0].I] = true
	}
	approxSources := map[int64]bool{}
	for _, r := range approxRows {
		approxSources[r[0].I] = true
	}
	// The sets should agree except near the threshold.
	miss := 0
	for s := range exactSources {
		if !approxSources[s] {
			miss++
		}
	}
	for s := range approxSources {
		if !exactSources[s] {
			miss++
		}
	}
	if miss > len(exactSources)/2+2 {
		t.Fatalf("approx sources diverge: exact %d approx %d miss %d",
			len(exactSources), len(approxSources), miss)
	}
	_ = tb
}

func TestBuildApproxWithErrorColumns(t *testing.T) {
	cat, _, store, _, _ := fixture(t)
	st, _ := sql.Parse("APPROX SELECT intensity, intensity_lo, intensity_hi FROM measurements WHERE source = 3 AND nu = 0.16 WITH ERROR")
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	v, lo, hi := rows[0][0].F, rows[0][1].F, rows[0][2].F
	if !(lo < v && v < hi) {
		t.Fatalf("bounds [%g, %g] around %g", lo, hi, v)
	}
}

func TestBuildApproxAggregates(t *testing.T) {
	cat, _, store, _, _ := fixture(t)
	st, _ := sql.Parse("APPROX SELECT count(*), avg(intensity) FROM measurements WHERE nu = 0.12")
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	// 25 sources, each with one 0.12 grid point.
	if rows[0][0].I != 25 {
		t.Fatalf("count = %v", rows[0][0])
	}
	// Exact average per measurement (multiple obs per source at 0.12).
	ex, _ := sql.Parse("SELECT avg(intensity) FROM measurements WHERE nu = 0.12")
	exOp, _ := exec.BuildSelect(cat, ex.(*sql.SelectStmt), nil, 1)
	exRows, _ := exec.Drain(exOp)
	rel := math.Abs(rows[0][1].F-exRows[0][0].F) / exRows[0][0].F
	if rel > 0.1 {
		t.Fatalf("approx avg off by %.1f%%", rel*100)
	}
}

func TestBuildApproxRejectsUncoveredColumn(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	_ = tb
	st, _ := sql.Parse("APPROX SELECT nosuch FROM measurements")
	if _, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), DefaultOptions()); err == nil {
		t.Fatal("want no-model error for uncovered column")
	}
}

func TestBuildApproxRejectsJoin(t *testing.T) {
	cat, _, store, _, _ := fixture(t)
	other, _ := table.NewSchema(table.ColumnDef{Name: "id", Type: 0})
	cat.Create("o", other)
	st, _ := sql.Parse("APPROX SELECT intensity FROM measurements JOIN o ON source = id")
	if _, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), DefaultOptions()); err == nil {
		t.Fatal("want join rejection")
	}
}

func TestHybridPartialCoverage(t *testing.T) {
	cat, tb, store, _, _ := fixture(t)
	// A model fitted only on nu > 0.13: queries must route model tuples
	// inside the region and raw tuples outside it.
	w, _ := expr.Parse("nu > 0.13")
	_, err := store.Capture(tb, modelstore.Spec{
		Name: "partial", Table: "measurements",
		Formula: "intensity ~ q * pow(nu, beta)",
		Inputs:  []string{"nu"}, GroupBy: "source",
		Where: w,
		Start: map[string]float64{"q": 1, "beta": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Drop("spectra") // force the partial model
	st, _ := sql.Parse("APPROX SELECT count(*) FROM measurements WHERE nu < 0.13")
	// Three narrow bands leave less ν-driven variance, so the partial fit's
	// R² sits below the default trust threshold; relax it — this test is
	// about routing, not fit quality.
	opts := DefaultOptions()
	opts.Policy.MinMedianR2 = 0.5
	plan, err := BuildApproxSelect(cat, store, st.(*sql.SelectStmt), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Hybrid {
		t.Fatal("plan should be hybrid")
	}
	if err := exec.OnePipeline(exec.PlanString(plan.Op)); err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil {
		t.Fatal(err)
	}
	// nu < 0.13 lies outside the model region, so the answer must equal the
	// exact count of raw 0.12-band rows.
	ex, _ := sql.Parse("SELECT count(*) FROM measurements WHERE nu < 0.13")
	exOp, _ := exec.BuildSelect(cat, ex.(*sql.SelectStmt), nil, 1)
	exRows, _ := exec.Drain(exOp)
	if rows[0][0].I != exRows[0][0].I {
		t.Fatalf("hybrid raw side: %v vs exact %v", rows[0][0], exRows[0][0])
	}
}

// drainLowered runs a model scan the way plans do, as a one-worker
// pipeline, and materializes it.
func drainLowered(t *testing.T, scan *ModelScan) ([]exec.Row, error) {
	t.Helper()
	op, err := exec.Lower(scan, 1)
	if err != nil {
		t.Fatal(err)
	}
	return exec.Drain(op)
}
