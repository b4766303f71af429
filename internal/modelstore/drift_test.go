package modelstore

import (
	"math"
	"math/rand"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// driftFixture builds a table following y = p·x^α per group, captures a
// model on it, and returns both.
func driftFixture(t *testing.T, groups, obs int) (*table.Table, *Store, *CapturedModel) {
	t.Helper()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "g", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "y", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New("m", schema)
	rng := rand.New(rand.NewSource(7))
	xs := []float64{0.12, 0.15, 0.16, 0.18}
	for g := 1; g <= groups; g++ {
		for i := 0; i < obs; i++ {
			x := xs[i%len(xs)]
			y := 2.5 * math.Pow(x, -0.7) * (1 + 0.02*rng.NormFloat64())
			if err := tb.AppendRow([]expr.Value{expr.Int(int64(g)), expr.Float(x), expr.Float(y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := NewStore()
	m, err := s.Capture(tb, Spec{
		Name: "law", Table: "m", Formula: "y ~ p * pow(x, alpha)",
		Inputs: []string{"x"}, GroupBy: "g",
		Start: map[string]float64{"p": 1, "alpha": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb, s, m
}

func lawRow(g int64, x, p, alpha, noise float64, rng *rand.Rand) []expr.Value {
	y := p * math.Pow(x, alpha) * (1 + noise*rng.NormFloat64())
	return []expr.Value{expr.Int(g), expr.Float(x), expr.Float(y)}
}

func TestDriftDetectorInLawRowsStayFresh(t *testing.T) {
	tb, _, m := driftFixture(t, 4, 40)
	det := NewDriftDetector(DriftConfig{MinRows: 16, MaxRMSZ: 2, MaxGrowthFrac: 10})
	rng := rand.New(rand.NewSource(11))
	var rows [][]expr.Value
	for i := 0; i < 100; i++ {
		rows = append(rows, lawRow(int64(i%4+1), 0.15, 2.5, -0.7, 0.02, rng))
	}
	det.Observe(m, tb.Schema(), rows)
	if _, err := tb.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	rep := det.Check(m, tb)
	if rep.Stale() {
		t.Fatalf("in-law appends flagged stale: %s", rep)
	}
	if st := det.State("law"); st.Observed != 100 {
		t.Fatalf("observed = %d", st.Observed)
	}
	// Residuals of data from the fitted law hover around unit scale.
	if rmsz := det.State("law").RMSZ(); rmsz > 2 || rmsz <= 0 {
		t.Fatalf("rmsz = %v", rmsz)
	}
}

func TestDriftDetectorLawChangeTriggers(t *testing.T) {
	tb, _, m := driftFixture(t, 4, 40)
	det := NewDriftDetector(DriftConfig{MinRows: 16, MaxRMSZ: 2, MaxGrowthFrac: -1})
	rng := rand.New(rand.NewSource(13))
	// The law moved: proportionality tripled.
	var rows [][]expr.Value
	for i := 0; i < 48; i++ {
		rows = append(rows, lawRow(int64(i%4+1), 0.15, 7.5, -0.7, 0.02, rng))
	}
	det.Observe(m, tb.Schema(), rows)
	rep := det.Check(m, tb)
	if !rep.Stale() || rep.Trigger != "drift" {
		t.Fatalf("law change not detected: %s", rep)
	}
	// Evidence resets with the model version: a new version starts clean.
	det.Reset("law")
	if det.State("law").Observed != 0 {
		t.Fatal("reset did not clear evidence")
	}
}

// TestDriftObserveAllocsFlat pins the ingest-path cost of drift observation
// for a model without WHERE: the per-batch buffers are the only
// allocations, so a 640-row batch allocates exactly as much as a 64-row one.
func TestDriftObserveAllocsFlat(t *testing.T) {
	tb, _, m := driftFixture(t, 4, 40)
	det := NewDriftDetector(DriftConfig{})
	rng := rand.New(rand.NewSource(17))
	batch := func(n int) [][]expr.Value {
		rows := make([][]expr.Value, n)
		for i := range rows {
			rows[i] = lawRow(int64(i%4+1), 0.15, 2.5, -0.7, 0.02, rng)
		}
		return rows
	}
	small, large := batch(64), batch(640)
	observe := func(rows [][]expr.Value) float64 {
		return testing.AllocsPerRun(20, func() { det.Observe(m, tb.Schema(), rows) })
	}
	if a, b := observe(small), observe(large); a != b {
		t.Fatalf("Observe allocates %.0f for 64 rows but %.0f for 640", a, b)
	}
}

func TestDriftDetectorGrowthTrigger(t *testing.T) {
	tb, _, m := driftFixture(t, 4, 40)
	det := NewDriftDetector(DriftConfig{MinRows: 1 << 30, MaxRMSZ: 1e9, MaxGrowthFrac: 0.5})
	rng := rand.New(rand.NewSource(17))
	var rows [][]expr.Value
	for i := 0; i < 4*40; i++ { // double the table: growth 1.0 > 0.5
		rows = append(rows, lawRow(int64(i%4+1), 0.15, 2.5, -0.7, 0.02, rng))
	}
	if _, err := tb.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	rep := det.Check(m, tb)
	if !rep.Stale() || rep.Trigger != "growth" {
		t.Fatalf("growth not detected: %s", rep)
	}
}

func TestDriftDetectorSkipsUnattributableRows(t *testing.T) {
	tb, _, m := driftFixture(t, 4, 40)
	det := NewDriftDetector(DriftConfig{})
	rows := [][]expr.Value{
		{expr.Int(99), expr.Float(0.15), expr.Float(1)}, // unfitted group
		{expr.Int(1), expr.Null(), expr.Float(1)},       // NULL input
		{expr.Int(1), expr.Float(0.15), expr.Null()},    // NULL output
	}
	det.Observe(m, tb.Schema(), rows)
	st := det.State("law")
	if st.Observed != 0 || st.Skipped != 3 {
		t.Fatalf("observed=%d skipped=%d", st.Observed, st.Skipped)
	}
}

func TestRefitWarmStartsFromPreviousParams(t *testing.T) {
	inEachLayout(t, refitWarmStarts)
}

func refitWarmStarts(t *testing.T, sealed bool) *CapturedModel {
	tb, s, m := driftFixture(t, 4, 40)
	requireLayout(t, tb, sealed)
	rng := rand.New(rand.NewSource(19))
	var rows [][]expr.Value
	for i := 0; i < 160; i++ {
		rows = append(rows, lawRow(int64(i%4+1), 0.16, 2.5, -0.7, 0.02, rng))
	}
	if _, err := tb.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Refit("law", tb)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Version != m.Version+1 {
		t.Fatalf("version = %d", warm.Version)
	}
	if warm.FittedRows != tb.NumRows() {
		t.Fatalf("fitted rows = %d, table has %d", warm.FittedRows, tb.NumRows())
	}
	cold, err := s.RefitCold("law", tb)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the converged optimum should need no more iterations
	// than restarting from the spec's declared start, typically far fewer.
	warmIters, coldIters := 0, 0
	for k, g := range warm.Groups {
		warmIters += g.Iters
		coldIters += cold.Groups[k].Iters
	}
	if warmIters > coldIters {
		t.Fatalf("warm refit took %d iterations, cold took %d", warmIters, coldIters)
	}
	if warmIters == 0 {
		t.Fatal("nonlinear warm refit reported zero iterations")
	}
	return warm
}

// TestRefitRetainsCoverageOnGroupFailure: when new data breaks one group's
// refit, the previous version's parameters are retained for it — a refit
// must never turn answerable queries into empty results.
func TestRefitRetainsCoverageOnGroupFailure(t *testing.T) {
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "g", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "y", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.New("m", schema)
	rng := rand.New(rand.NewSource(41))
	xs := []float64{0.12, 0.15, 0.16, 0.18}
	for g := 1; g <= 3; g++ {
		for i := 0; i < 40; i++ {
			x := xs[i%4]
			y := 2 * math.Pow(x, -0.7) * (1 + 0.02*rng.NormFloat64())
			if err := tb.AppendRow([]expr.Value{expr.Int(int64(g)), expr.Float(x), expr.Float(y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := NewStore()
	// Gauss-Newton diverges hard on the poisoned rows below, giving a
	// deterministic per-group refit failure.
	m, err := s.Capture(tb, Spec{
		Name: "law", Table: "m", Formula: "y ~ p * pow(x, alpha)",
		Inputs: []string{"x"}, GroupBy: "g",
		Start:  map[string]float64{"p": 1, "alpha": -1},
		Method: "gn",
	})
	if err != nil {
		t.Fatal(err)
	}
	oldG1, ok := m.GroupFor(1)
	if !ok {
		t.Fatal("group 1 unfitted at capture")
	}
	// Poison group 1 with astronomically large outliers: its residual sum
	// of squares overflows and the group's refit fails.
	for i := 0; i < 4; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.15), expr.Float(1e300)}); err != nil {
			t.Fatal(err)
		}
	}
	nm, err := s.Refit("law", tb)
	if err != nil {
		t.Fatal(err)
	}
	g1, ok := nm.GroupFor(1)
	if !ok {
		t.Fatal("refit lost group 1 coverage")
	}
	if g1.Retained == "" {
		t.Fatal("group 1 should be marked retained")
	}
	for i, p := range g1.Params {
		if p != oldG1.Params[i] {
			t.Fatalf("retained params differ: %v vs %v", g1.Params, oldG1.Params)
		}
	}
	// The healthy groups were genuinely re-fitted.
	if g2, ok := nm.GroupFor(2); !ok || g2.Retained != "" {
		t.Fatalf("group 2 = %+v", g2)
	}
	if nm.Quality.GroupsOK != 3 {
		t.Fatalf("quality counts retained coverage: %+v", nm.Quality)
	}
}
