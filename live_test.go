package datalaws

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/refit"
)

// TestLiveCaptureLoop is the acceptance demonstration of the live-data
// loop, end to end:
//
//  1. a model is captured on a small sample and a prepared APPROX statement
//     answers from it with error bounds;
//  2. ingestion outgrows the fit — stale answers keep flowing but with
//     inflated bounds (StaleInflate);
//  3. the background refitter notices (growth trigger), re-fits warm-started
//     on a snapshot, and swaps the new version in atomically;
//  4. the same prepared statement — never re-prepared — answers from the
//     new model version with no error and tighter bounds than the stale
//     answers.
func TestLiveCaptureLoop(t *testing.T) {
	e, d := loadLOFAR(t, 6, 12) // few observations → wide parameter covariance
	defer e.Close()
	e.AQP.Policy.MaxStalenessFrac = 0 // serve while stale (inflated), never revoke
	e.AQP.StaleInflate = true
	e.MustExec(`FIT MODEL spectra ON measurements
		AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)

	ctx := context.Background()
	stmt, err := e.Prepare(`APPROX SELECT intensity, intensity_lo, intensity_hi
		FROM measurements WHERE source = ? AND nu = ? WITH ERROR`)
	if err != nil {
		t.Fatal(err)
	}
	width := func() (float64, *Result) {
		t.Helper()
		res, err := stmt.Exec(ctx, 3, 0.16)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		lo, hi := res.Rows[0][1].F, res.Rows[0][2].F
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi <= lo {
			t.Fatalf("bounds = [%v, %v]", lo, hi)
		}
		return hi - lo, res
	}

	// (1) Fresh model, version 1, no widening.
	freshWidth, res := width()
	if res.Model != "spectra" || res.ModelVersion != 1 || res.SEInflation != 1 {
		t.Fatalf("fresh answer: model=%q v%d inflate=%v", res.Model, res.ModelVersion, res.SEInflation)
	}

	// (2) Ingest ~2× the original data from the same law. The model is now
	// stale; answers widen by 1 + growth.
	truth := d.Truth[3]
	rng := rand.New(rand.NewSource(23))
	before, _ := e.Catalog.Get("measurements")
	base := before.NumRows()
	var batch [][]expr.Value
	for i := 0; i < 2*base; i++ {
		src := int64(i%6 + 1)
		tr := d.Truth[src]
		nu := []float64{0.12, 0.15, 0.16, 0.18}[i%4]
		y := tr.P * math.Pow(nu, tr.Alpha) * (1 + 0.03*rng.NormFloat64())
		batch = append(batch, []expr.Value{expr.Int(src), expr.Float(nu), expr.Float(y)})
	}
	if _, err := e.Append("measurements", batch); err != nil {
		t.Fatal(err)
	}
	staleWidth, res := width()
	if res.ModelVersion != 1 {
		t.Fatalf("stale answer from version %d", res.ModelVersion)
	}
	if res.SEInflation <= 1.5 {
		t.Fatalf("stale inflation = %v (growth should be ~2)", res.SEInflation)
	}
	if staleWidth <= freshWidth {
		t.Fatalf("stale bounds not widened: fresh %v, stale %v", freshWidth, staleWidth)
	}

	// (3) Enable auto-refit; the growth trigger fires on the next observed
	// append and the background worker swaps in version 2.
	events := make(chan refit.Event, 4)
	e.EnableAutoRefit(refit.Options{
		Drift:   modelstore.DriftConfig{MinRows: 1 << 30, MaxRMSZ: 1e9, MaxGrowthFrac: 0.5},
		OnEvent: func(ev refit.Event) { events <- ev },
	})
	// One more (tiny) observed append nudges the worker.
	nudge := [][]expr.Value{{expr.Int(3), expr.Float(0.16),
		expr.Float(truth.P * math.Pow(0.16, truth.Alpha))}}
	if _, err := e.Append("measurements", nudge); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Err != nil {
			t.Fatalf("background refit failed: %v", ev.Err)
		}
		if ev.Trigger != "growth" || ev.NewVersion != 2 {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("background refit never happened")
	}

	// (4) The same prepared statement now answers from version 2 — no
	// re-prepare, no error — and the refit bounds are tighter than the stale
	// ones (3× the data: parameter covariance shrank, widening gone).
	refitWidth, res := width()
	if res.ModelVersion != 2 {
		t.Fatalf("post-refit answer from version %d", res.ModelVersion)
	}
	if res.SEInflation != 1 {
		t.Fatalf("post-refit inflation = %v", res.SEInflation)
	}
	if refitWidth >= staleWidth {
		t.Fatalf("refit bounds not tighter: stale %v, refit %v", staleWidth, refitWidth)
	}
}

// TestAutoRefitDriftTriggerThroughSQL drives the drift trigger through the
// SQL surface only: INSERT feeds the detector, the law change is caught, and
// the refit picks new parameters.
func TestAutoRefitDriftTriggerThroughSQL(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.MustExec("CREATE TABLE m (g BIGINT, x DOUBLE, y DOUBLE)")
	rng := rand.New(rand.NewSource(31))
	var rows [][]expr.Value
	for i := 0; i < 160; i++ {
		x := []float64{0.12, 0.15, 0.16, 0.18}[i%4]
		y := 2 * math.Pow(x, -0.7) * (1 + 0.02*rng.NormFloat64())
		rows = append(rows, []expr.Value{expr.Int(int64(i%4 + 1)), expr.Float(x), expr.Float(y)})
	}
	if _, err := e.Append("m", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec(`FIT MODEL law ON m AS 'y ~ p * pow(x, alpha)'
		INPUTS (x) GROUP BY g START (p = 1, alpha = -1)`)

	// The worker waits in OnEvent until the catalog is checked, so drifted
	// rows that arrive after the first refit cannot land a second one first.
	events := make(chan refit.Event, 4)
	checked := make(chan struct{})
	defer close(checked)
	e.EnableAutoRefit(refit.Options{
		Drift:   modelstore.DriftConfig{MinRows: 16, MaxRMSZ: 2, MaxGrowthFrac: -1},
		OnEvent: func(ev refit.Event) { events <- ev; <-checked },
	})
	// The law moves (p 2 → 3); drifted rows arrive via plain INSERTs.
	for i := 0; i < 48; i++ {
		x := []float64{0.12, 0.15, 0.16, 0.18}[i%4]
		y := 3 * math.Pow(x, -0.7) * (1 + 0.02*rng.NormFloat64())
		e.MustExec("INSERT INTO m VALUES (" +
			expr.Int(int64(i%4+1)).String() + ", " +
			expr.Float(x).String() + ", " + expr.Float(y).String() + ")")
	}
	select {
	case ev := <-events:
		if ev.Err != nil {
			t.Fatalf("refit failed: %v", ev.Err)
		}
		if ev.Trigger != "drift" {
			t.Fatalf("trigger = %q", ev.Trigger)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drift-triggered refit never happened")
	}
	m, _ := e.Models.Get("law")
	if m.Version != 2 {
		t.Fatalf("version = %d", m.Version)
	}
}
