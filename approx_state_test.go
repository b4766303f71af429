package datalaws

import (
	"context"
	"fmt"
	"math"
	"testing"

	"datalaws/internal/expr"
)

// approxCount runs an APPROX count(*) through the engine's SQL path, so the
// engine's shared domain-state cache is the one exercised.
func approxCount(t *testing.T, e *Engine, q string) int64 {
	t.Helper()
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if res.Model == "" {
		t.Fatalf("%s: answered exactly, want the model route", q)
	}
	return res.Rows[0][0].I
}

// TestRecaptureSameNameGetsFreshDomains re-captures a model under a dropped
// one's name. The new model restarts at version 1, so artifacts cached by
// (model name, version) and table version would be served to it; domain
// states are keyed by table, group column and inputs, and know their table
// object, so each re-capture below enumerates its own rows.
func TestRecaptureSameNameGetsFreshDomains(t *testing.T) {
	t.Run("ungrouped over the same input", func(t *testing.T) {
		e, _ := loadLOFAR(t, 25, 40)
		// The ungrouped fit is poor; this test is about artifacts, not fit quality.
		e.AQP.Policy.MinMedianR2 = math.Inf(-1)
		fitSpectra(t, e)
		if n := approxCount(t, e, "APPROX SELECT count(*) FROM measurements"); n != 100 {
			t.Fatalf("grouped: count = %d, want 25 sources x 4 bands", n)
		}
		e.MustExec("DROP MODEL spectra")
		e.MustExec(`FIT MODEL spectra ON measurements AS 'intensity ~ p * pow(nu, alpha)'
			INPUTS (nu) START (p = 1, alpha = -1)`)
		if n := approxCount(t, e, "APPROX SELECT count(*) FROM measurements"); n != 4 {
			t.Fatalf("ungrouped re-capture: count = %d, want one row per band (4)", n)
		}
	})
	t.Run("another input", func(t *testing.T) {
		e, _ := loadLOFAR(t, 25, 40)
		e.AQP.Policy.MinMedianR2 = math.Inf(-1)
		fitSpectra(t, e)
		approxCount(t, e, "APPROX SELECT count(*) FROM measurements")
		e.MustExec("DROP MODEL spectra")
		e.MustExec(`FIT MODEL spectra ON measurements AS 'intensity ~ a + b * source'
			INPUTS (source) START (a = 1, b = 0)`)
		if n := approxCount(t, e, "APPROX SELECT count(*) FROM measurements"); n != 25 {
			t.Fatalf("re-capture over source: count = %d, want one row per source (25)", n)
		}
	})
	t.Run("dropped and re-created table", func(t *testing.T) {
		e := NewEngine()
		// Both incarnations get one INSERT batch of 36 rows, so the table
		// version, row count and model name and version all repeat; only
		// the frequencies differ.
		create := func(bands [3]float64) {
			e.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
			ins := "INSERT INTO m VALUES "
			for i := 0; i < 36; i++ {
				src, nu := 1+i%4, bands[(i/4)%3]
				y := float64(src) * math.Pow(nu, -0.7) * (1 + float64(i%5-2)/100)
				if i > 0 {
					ins += ", "
				}
				ins += fmt.Sprintf("(%d, %g, %g)", src, nu, y)
			}
			e.MustExec(ins)
			e.MustExec(`FIT MODEL spectra ON m AS 'intensity ~ p * pow(nu, alpha)'
				INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
		}
		create([3]float64{0.12, 0.15, 0.18})
		if n := approxCount(t, e, "APPROX SELECT count(*) FROM m WHERE nu = 0.15"); n != 4 {
			t.Fatalf("first table: count = %d, want 4", n)
		}
		e.MustExec("DROP TABLE m")
		create([3]float64{0.3, 0.4, 0.5})
		if n := approxCount(t, e, "APPROX SELECT count(*) FROM m WHERE nu = 0.4"); n != 4 {
			t.Fatalf("re-created table: count = %d, want 4 (its own frequencies)", n)
		}
		if n := approxCount(t, e, "APPROX SELECT count(*) FROM m WHERE nu = 0.15"); n != 0 {
			t.Fatalf("re-created table: count = %d at a dropped table's frequency, want 0", n)
		}
	})
}

// Allocation budgets of the prepared APPROX point read, the paper's dominant
// interaction, as tier-1 assertions: a regression fails go test ./...
// without the benchmark module.
const (
	approxPointAllocBudget       = 18 // no append since the last bind
	appendApproxPointAllocBudget = 42 // a 64-row append, then the same read
)

func TestApproxPointAllocBudget(t *testing.T) {
	// 500 sources x 40 observations: ≈ 20k rows, one sealed chunk plus a
	// tail the measured appends never seal.
	e, _ := loadLOFAR(t, 500, 40)
	fitSpectra(t, e)
	stmt, err := e.Prepare("APPROX SELECT intensity, intensity_lo, intensity_hi FROM measurements WHERE source = ? AND nu = ? WITH ERROR")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	point := func() {
		res, err := stmt.Exec(ctx, 7, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("point read: %d rows, want 1", len(res.Rows))
		}
	}
	point()
	got := testing.AllocsPerRun(50, point)
	t.Logf("prepared APPROX point: %.0f allocations", got)
	if got > approxPointAllocBudget {
		t.Errorf("prepared APPROX point: %.0f allocations, budget %d", got, approxPointAllocBudget)
	}

	batch := make([][]expr.Value, 64)
	for i := range batch {
		batch[i] = []expr.Value{expr.Int(int64(1 + i)), expr.Float(0.15), expr.Float(1)}
	}
	appendThenPoint := func() {
		if _, err := e.Append("measurements", batch); err != nil {
			t.Fatal(err)
		}
		point()
	}
	got = testing.AllocsPerRun(20, appendThenPoint)
	t.Logf("64-row append + prepared APPROX point: %.0f allocations", got)
	if got > appendApproxPointAllocBudget {
		t.Errorf("64-row append + prepared APPROX point: %.0f allocations, budget %d", got, appendApproxPointAllocBudget)
	}
}

// Allocation budgets of capturing the law itself on the same fixture: one
// cold FIT MODEL (every group starts from the declared START) and one warm
// REFIT MODEL (every group starts from its previous fit), each fitting 500
// power laws over ≈ 20k rows.
const (
	fitAllocBudget   = 34245
	refitAllocBudget = 18895
)

func TestFitAllocBudget(t *testing.T) {
	e, _ := loadLOFAR(t, 500, 40)
	n := 0
	fit := func() {
		n++
		e.MustExec(fmt.Sprintf(`FIT MODEL spectra%d ON measurements
			AS 'intensity ~ p * pow(nu, alpha)'
			INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`, n))
	}
	got := testing.AllocsPerRun(2, fit)
	t.Logf("cold FIT MODEL, 500 groups: %.0f allocations", got)
	if got > fitAllocBudget {
		t.Errorf("cold FIT MODEL: %.0f allocations, budget %d", got, fitAllocBudget)
	}
}

func TestRefitAllocBudget(t *testing.T) {
	e, _ := loadLOFAR(t, 500, 40)
	fitSpectra(t, e)
	got := testing.AllocsPerRun(3, func() { e.MustExec("REFIT MODEL spectra") })
	t.Logf("warm REFIT MODEL, 500 groups: %.0f allocations", got)
	if got > refitAllocBudget {
		t.Errorf("warm REFIT MODEL: %.0f allocations, budget %d", got, refitAllocBudget)
	}
}
