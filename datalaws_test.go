package datalaws

import (
	"math"
	"strings"
	"testing"

	"datalaws/internal/capture"
	"datalaws/internal/expr"
	"datalaws/internal/synth"
)

// loadLOFAR builds an engine with a synthetic measurement table and returns
// the generator truth.
func loadLOFAR(t *testing.T, sources, obs int) (*Engine, *synth.LOFARData) {
	t.Helper()
	e := NewEngine()
	d := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: sources, ObsPerSource: obs, NoiseFrac: 0.03, AnomalyFrac: 0, Seed: 61,
	})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestCreateInsertSelect(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	e.MustExec("INSERT INTO m VALUES (1, 0.12, 2.3), (1, 0.15, 2.1), (2, 0.12, 5.0)")
	res := e.MustExec("SELECT count(*), avg(intensity) FROM m WHERE source = 1")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if math.Abs(res.Rows[0][1].F-2.2) > 1e-12 {
		t.Fatalf("avg = %v", res.Rows[0][1])
	}
}

func TestExecErrors(t *testing.T) {
	e := NewEngine()
	for _, q := range []string{
		"NOT SQL AT ALL",
		"SELECT a FROM missing",
		"INSERT INTO missing VALUES (1)",
		"DROP MODEL none",
		"REFIT MODEL none",
		"FIT MODEL x ON missing AS 'y ~ a*x' INPUTS (x)",
	} {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q): want error", q)
		}
	}
}

func TestFitModelAndShowModels(t *testing.T) {
	e, _ := loadLOFAR(t, 20, 40)
	res := e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	if res.Model != "spectra" || !strings.Contains(res.Info, "captured") {
		t.Fatalf("fit result = %+v", res)
	}
	show := e.MustExec("SHOW MODELS")
	if len(show.Rows) != 1 || show.Rows[0][0].S != "spectra" {
		t.Fatalf("show = %v", show.Rows)
	}
	// Median R² column should reflect a good fit.
	if show.Rows[0][4].F < 0.8 {
		t.Fatalf("median R² = %v", show.Rows[0][4])
	}
	e.MustExec("DROP MODEL spectra")
	if len(e.MustExec("SHOW MODELS").Rows) != 0 {
		t.Fatal("model not dropped")
	}
}

func TestApproxSelectEndToEnd(t *testing.T) {
	e, d := loadLOFAR(t, 20, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	// The paper's point query, approximately answered with error bounds.
	res := e.MustExec(`APPROX SELECT intensity, intensity_lo, intensity_hi
		FROM measurements WHERE source = 5 AND nu = 0.15 WITH ERROR`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Model != "spectra" {
		t.Fatalf("model = %q", res.Model)
	}
	v, lo, hi := res.Rows[0][0].F, res.Rows[0][1].F, res.Rows[0][2].F
	truth := d.Truth[5]
	want := truth.P * math.Pow(0.15, truth.Alpha)
	if math.Abs(v-want)/want > 0.2 {
		t.Fatalf("value %g want %g", v, want)
	}
	if !(lo < v && v < hi) {
		t.Fatalf("bounds [%g,%g] around %g", lo, hi, v)
	}
}

func TestApproxRequiresTrustedModel(t *testing.T) {
	e, _ := loadLOFAR(t, 10, 40)
	if _, err := e.Exec("APPROX SELECT intensity FROM measurements WHERE source = 1"); err == nil {
		t.Fatal("want no-model error before any fit")
	}
}

func TestRefitFlow(t *testing.T) {
	e, _ := loadLOFAR(t, 10, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	res := e.MustExec("REFIT MODEL spectra")
	if !strings.Contains(res.Info, "version 2") {
		t.Fatalf("refit info = %q", res.Info)
	}
}

func TestEngineAsCaptureBackend(t *testing.T) {
	e, d := loadLOFAR(t, 15, 40)
	// The Figure 2 workflow against the real engine, in process.
	s, err := capture.NewStrawman(e, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != len(d.Source) {
		t.Fatalf("strawman rows = %d", s.NumRows())
	}
	sum, err := s.Fit("spectra", "intensity ~ p * pow(nu, alpha)", []string{"nu"}, &capture.FitOptions{
		GroupBy: "source",
		Start:   map[string]float64{"p": 1, "alpha": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Groups != 15 || sum.MedianR2 < 0.8 {
		t.Fatalf("summary = %+v", sum)
	}
	// The fit was transparently captured: APPROX works now.
	res := e.MustExec("APPROX SELECT intensity FROM measurements WHERE source = 2 AND nu = 0.12")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// And the strawman can ask for points directly.
	ans, err := s.Point("spectra", 2, []float64{0.12}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Value-res.Rows[0][0].F) > 1e-9 {
		t.Fatalf("strawman point %g vs approx select %g", ans.Value, res.Rows[0][0].F)
	}
}

// TestApproxPointNaNLevel: NaN passed both `level <= 0` and `level >= 1`,
// so a NaN level returned a NaN interval with no error. It takes the 95%
// default like any other level outside (0, 1).
func TestApproxPointNaNLevel(t *testing.T) {
	e, _ := loadLOFAR(t, 6, 40)
	s, err := capture.NewStrawman(e, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit("spectra", "intensity ~ p * pow(nu, alpha)", []string{"nu"}, &capture.FitOptions{
		GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1},
	}); err != nil {
		t.Fatal(err)
	}
	want, err := s.Point("spectra", 1, []float64{0.16}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Point("spectra", 1, []float64{0.16}, math.NaN())
	if err != nil || got != want {
		t.Fatalf("NaN level = %+v, %v; want the 95%% answer %+v", got, err, want)
	}
}

// TestApproxPointWidenedAsStatement: on a table grown since the fit, with
// StaleInflate on, a strawman point took factor 1 and answered a narrower
// interval than the WITH ERROR statement for the same model, point and
// level. Both now widen by aqp.Inflation.
func TestApproxPointWidenedAsStatement(t *testing.T) {
	e, d := loadLOFAR(t, 6, 40)
	fitSpectra(t, e)
	grown := make([][]expr.Value, d.NumRows()/10)
	for i := range grown {
		grown[i] = []expr.Value{expr.Int(d.Source[i]), expr.Float(d.Nu[i]), expr.Float(d.Intensity[i])}
	}
	if _, err := e.Append("measurements", grown); err != nil {
		t.Fatal(err)
	}
	e.AQP.StaleInflate = true
	res := e.MustExec("APPROX SELECT intensity, intensity_lo, intensity_hi FROM measurements WHERE source = 1 AND nu = 0.12 WITH ERROR")
	if len(res.Rows) != 1 || res.SEInflation <= 1 {
		t.Fatalf("statement: %d rows, inflation %g; want one row, widened", len(res.Rows), res.SEInflation)
	}
	ans, err := e.ApproxPoint("spectra", 1, []float64{0.12}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Rows[0]; ans.Value != row[0].F || ans.Lo != row[1].F || ans.Hi != row[2].F {
		t.Fatalf("point %g [%g, %g], statement %g [%g, %g]", ans.Value, ans.Lo, ans.Hi, row[0].F, row[1].F, row[2].F)
	}
}

// TestApproxPointPartitionedFamily: a strawman fit on a partitioned table
// returns a summary named for the family, but a point of that name failed
// with "model not found" because only the members fam#pK exist. The point
// now routes to the member holding it, on the partition column.
func TestApproxPointPartitionedFamily(t *testing.T) {
	e := partedEngine(t, 4, 0.01, 3)
	s, err := capture.NewStrawman(e, "m")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Fit("fam", "intensity ~ a * nu + b", []string{"nu"}, &capture.FitOptions{
		GroupBy: "source", Start: map[string]float64{"a": 1, "b": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Name != "fam" || sum.Groups != 16 {
		t.Fatalf("family summary = %+v", sum)
	}
	ans, err := s.Point("fam", 225, []float64{1.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	member, err := s.Point("fam#p2", 225, []float64{1.5}, 0.95)
	if err != nil || ans != member || ans.ModelName != "fam#p2" {
		t.Fatalf("family point = %+v, member p2 = %+v (%v)", ans, member, err)
	}
	// A family partitioned on a column that is neither its group nor an
	// input cannot route a point; the error names the partition column.
	e.MustExec(`CREATE TABLE b (band BIGINT, nu DOUBLE, intensity DOUBLE) PARTITION BY RANGE(band) (
		PARTITION lo VALUES LESS THAN (1), PARTITION hi VALUES LESS THAN (MAXVALUE))`)
	e.MustExec("INSERT INTO b VALUES (0, 1, 2.1), (0, 2, 3.9), (0, 3, 6.2), (1, 1, 2), (1, 2, 4.1), (1, 3, 5.9)")
	e.MustExec("FIT MODEL bl ON b AS 'intensity ~ a * nu' INPUTS (nu) START (a = 1)")
	if _, err := e.ApproxPoint("bl", 0, []float64{2}, 0.95); err == nil || !strings.Contains(err.Error(), `"band"`) {
		t.Fatalf("unroutable family point = %v, want an error naming \"band\"", err)
	}
}

func TestFormatResult(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT, b VARCHAR)")
	e.MustExec("INSERT INTO t VALUES (1, 'x'), (22, 'yy')")
	out := FormatResult(e.MustExec("SELECT a, b FROM t ORDER BY a"))
	if !strings.Contains(out, "a") || !strings.Contains(out, "yy") {
		t.Fatalf("format:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestInsertNullAndSelectIsNull(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (a BIGINT, b DOUBLE)")
	e.MustExec("INSERT INTO t VALUES (1, NULL), (2, 5.0)")
	res := e.MustExec("SELECT a FROM t WHERE b IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestApproxGridMetadata(t *testing.T) {
	e, _ := loadLOFAR(t, 12, 40)
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
	res := e.MustExec("APPROX SELECT count(*) FROM measurements")
	if res.ApproxGrid != 12*4 {
		t.Fatalf("grid = %d, want 48", res.ApproxGrid)
	}
	// All (source, band) combinations occur in the generator, so the
	// zero-IO count equals the grid.
	if res.Rows[0][0].I != 48 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestExprValueRoundTripThroughEngine(t *testing.T) {
	e := NewEngine()
	e.MustExec("CREATE TABLE t (s VARCHAR, f DOUBLE)")
	e.MustExec("INSERT INTO t VALUES ('it''s', -1.5)")
	res := e.MustExec("SELECT s, f FROM t")
	if res.Rows[0][0].S != "it's" {
		t.Fatalf("string = %q", res.Rows[0][0].S)
	}
	if res.Rows[0][1].K != expr.KindFloat || res.Rows[0][1].F != -1.5 {
		t.Fatalf("float = %v", res.Rows[0][1])
	}
}
