package repro

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"datalaws/internal/anomaly"
	"datalaws/internal/aqp"
	"datalaws/internal/compress"
	"datalaws/internal/exec"
	"datalaws/internal/explore"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/repro/bloom"
	"datalaws/internal/sql"
	"datalaws/internal/synth"
	"datalaws/internal/table"
)

// T2a regenerates the "true semantic compression" opportunity: the model +
// residual codec against a DEFLATE baseline on the same bytes.
func T2a(sc Scale) (*Report, error) {
	e, tb, _, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	m, err := captureSpectra(e, tb)
	if err != nil {
		return nil, err
	}
	v := tb.Chunks()
	_, cols, err := v.Numeric("", []string{"intensity"})
	if err != nil {
		return nil, err
	}
	intensity := cols[0]
	raw := compress.Float64Bytes(intensity)
	flateBytes, err := compress.FlateRoundTrip(raw)
	if err != nil {
		return nil, err
	}
	lossless, err := compress.CompressOutput(v, m, compress.Lossless, 0)
	if err != nil {
		return nil, err
	}
	back, err := lossless.Decompress(v, m)
	if err != nil {
		return nil, err
	}
	for i := range intensity {
		if math.Float64bits(back[i]) != math.Float64bits(intensity[i]) {
			return nil, fmt.Errorf("repro T2a: lossless round trip corrupted row %d", i)
		}
	}
	eps := m.Quality.MedianResidualSE / 10
	bounded, err := compress.CompressOutput(v, m, compress.BoundedLoss, eps)
	if err != nil {
		return nil, err
	}
	backB, err := bounded.Decompress(v, m)
	if err != nil {
		return nil, err
	}
	var worst float64
	for i := range intensity {
		if d := math.Abs(backB[i] - intensity[i]); d > worst {
			worst = d
		}
	}

	r := &Report{
		ID: "T2a", Title: "semantic compression of the intensity column",
		PaperClaim: "user models enable high compression; storing model + residuals reconstructs the data (SPARTAN, with generic hard-coded models, only barely beat gzip)",
	}
	r.addf("%-34s %12s %10s", "method", "bytes", "vs raw")
	pct := func(n int) float64 { return 100 * float64(n) / float64(len(raw)) }
	r.addf("%-34s %12d %9.1f%%", "raw float64 column", len(raw), 100.0)
	r.addf("%-34s %12d %9.1f%%", "flate (gzip-class) baseline", flateBytes, pct(flateBytes))
	r.addf("%-34s %12d %9.1f%%", "model + exact residuals (lossless)", lossless.SizeBytes(m), pct(lossless.SizeBytes(m)))
	r.addf("%-34s %12d %9.1f%%", fmt.Sprintf("model + residuals (|err|<=%.2g)", eps/2), bounded.SizeBytes(m), pct(bounded.SizeBytes(m)))
	r.addf("bounded-loss worst reconstruction error = %.3g (bound %.3g)", worst, eps/2)
	r.Measured = fmt.Sprintf("bounded-loss semantic = %.1f%% of raw vs flate %.1f%% — user model beats the generic compressor",
		pct(bounded.SizeBytes(m)), pct(flateBytes))
	if bounded.SizeBytes(m) >= flateBytes {
		return r, fmt.Errorf("repro T2a: semantic compression (%d B) did not beat flate (%d B)", bounded.SizeBytes(m), flateBytes)
	}
	return r, nil
}

// T2b regenerates the "zero-IO scans" opportunity: an aggregate answered
// from the model grid instead of the stored measurements.
func T2b(sc Scale) (*Report, error) {
	e, tb, _, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	if _, err := captureSpectra(e, tb); err != nil {
		return nil, err
	}
	const q = "SELECT avg(intensity), count(*) FROM measurements WHERE nu = 0.12"

	t0 := time.Now()
	exact := e.MustExec(q)
	exactDur := time.Since(t0)

	t1 := time.Now()
	approx := e.MustExec("APPROX " + q)
	approxDur := time.Since(t1)

	exAvg := exact.Rows[0][0].F
	apAvg := approx.Rows[0][0].F
	rel := math.Abs(apAvg-exAvg) / math.Abs(exAvg)

	r := &Report{
		ID: "T2b", Title: "zero-IO scan vs exact scan",
		PaperClaim: "approximate queries need not access stored data: IO-bound scanning becomes CPU-bound model evaluation, with better accuracy than synopses",
	}
	r.addf("query: %s", q)
	r.addf("exact : avg=%.5f over %d measurement rows   [%v]", exAvg, tb.NumRows(), exactDur.Round(time.Microsecond))
	r.addf("approx: avg=%.5f over %d grid rows (zero measurement IO)   [%v]", apAvg, approx.ApproxGrid, approxDur.Round(time.Microsecond))
	r.addf("relative error = %.3f%%; grid/raw row ratio = %.4f",
		rel*100, float64(approx.ApproxGrid)/float64(tb.NumRows()))
	r.Measured = fmt.Sprintf("relative error %.3f%% while touching %.1f%% as many rows",
		rel*100, 100*float64(approx.ApproxGrid)/float64(tb.NumRows()))
	if rel > 0.05 {
		return r, fmt.Errorf("repro T2b: approximate average off by %.2f%%", rel*100)
	}
	return r, nil
}

// T2c regenerates the "analytic solutions for linear models" opportunity on
// the sensor dataset: closed-form aggregates vs grid enumeration vs exact.
func T2c(sc Scale) (*Report, error) {
	d := synth.GenerateSensors(synth.SensorConfig{
		Sensors: sc.SensorCount, Steps: sc.SensorSteps, Noise: 0.3, Seed: sc.Seed,
	})
	tb, err := synth.SensorTable("readings", d)
	if err != nil {
		return nil, err
	}
	store := modelstore.NewStore()
	m, err := store.Capture(tb, modelstore.Spec{
		Name: "trend", Table: "readings",
		Formula: "temp ~ a + b*t",
		Inputs:  []string{"t"}, GroupBy: "sensor",
	})
	if err != nil {
		return nil, err
	}
	view := tb.Chunks()
	doms, err := aqp.DomainsFor(view, []string{"t"}, sc.SensorSteps+1)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	analytic, err := aqp.AnalyticAggregates(m, doms)
	if err != nil {
		return nil, err
	}
	analyticDur := time.Since(t0)

	t1 := time.Now()
	scan, err := aqp.NewModelScan(m, doms, nil)
	if err != nil {
		return nil, err
	}
	op, err := exec.Lower(scan, 1)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	var enumSum, enumMin, enumMax float64
	enumMin, enumMax = math.Inf(1), math.Inf(-1)
	for _, row := range rows {
		v := row[2].F
		enumSum += v
		if v < enumMin {
			enumMin = v
		}
		if v > enumMax {
			enumMax = v
		}
	}
	enumDur := time.Since(t1)

	_, tcols, err := view.Numeric("", []string{"temp"})
	if err != nil {
		return nil, err
	}
	temps := tcols[0]
	var exactSum, exactMin, exactMax float64
	exactMin, exactMax = math.Inf(1), math.Inf(-1)
	for _, v := range temps {
		exactSum += v
		if v < exactMin {
			exactMin = v
		}
		if v > exactMax {
			exactMax = v
		}
	}

	r := &Report{
		ID: "T2c", Title: "analytic aggregates for a linear model (temp ~ a + b·t)",
		PaperClaim: "for linear models, aggregate answers (e.g. min and max of a column) have analytic solutions — no grid materialization",
	}
	r.addf("%-12s %14s %14s %14s %12s", "method", "avg", "min", "max", "time")
	r.addf("%-12s %14.4f %14.4f %14.4f %12v", "analytic", analytic.Avg, analytic.Min, analytic.Max, analyticDur.Round(time.Microsecond))
	r.addf("%-12s %14.4f %14.4f %14.4f %12v", "enumeration", enumSum/float64(len(rows)), enumMin, enumMax, enumDur.Round(time.Microsecond))
	r.addf("%-12s %14.4f %14.4f %14.4f %12s", "exact data", exactSum/float64(len(temps)), exactMin, exactMax, "-")
	r.addf("analytic ≡ enumeration: avg diff %.2e, range diff %.2e / %.2e; speedup ×%.0f",
		math.Abs(analytic.Avg-enumSum/float64(len(rows))),
		math.Abs(analytic.Min-enumMin), math.Abs(analytic.Max-enumMax),
		float64(enumDur)/float64(analyticDur+1))
	r.Measured = fmt.Sprintf("analytic matches enumeration to %.1e and is ×%.0f faster; both track the exact data (linear trend absorbs the daily wave into residuals)",
		math.Abs(analytic.Avg-enumSum/float64(len(rows))), float64(enumDur)/float64(analyticDur+1))
	if math.Abs(analytic.Avg-enumSum/float64(len(rows))) > 1e-6 {
		return r, fmt.Errorf("repro T2c: analytic and enumerated aggregates disagree")
	}
	return r, nil
}

// T2d regenerates the "model exploration" opportunity: high-gradient regions
// of the fitted power law.
func T2d(sc Scale) (*Report, error) {
	e, tb, _, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	m, err := captureSpectra(e, tb)
	if err != nil {
		return nil, err
	}
	pts, err := explore.HighGradientRegions(m, map[string][]float64{"nu": synth.Bands}, 5)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "T2d", Title: "high-gradient regions of the model surface",
		PaperClaim: "analyzing the first derivative of the model function finds interesting subsets: regions of the parameter space with high gradients",
	}
	r.addf("%-10s %-10s %14s %14s", "source", "nu", "I(nu)", "|dI/dnu|")
	for _, p := range pts {
		r.addf("%-10d %-10.2f %14.4f %14.4f", p.Group, p.Inputs[0], p.Value, p.GradNorm)
	}
	allAtLowest := true
	for _, p := range pts {
		if p.Inputs[0] != synth.Bands[0] {
			allAtLowest = false
		}
	}
	r.addf("steepest responses cluster at the lowest frequency band (alpha<0 power law): %v", allAtLowest)
	r.Measured = fmt.Sprintf("top-5 gradients all at nu=%.2f = %v (analytic derivative of the captured formula)", synth.Bands[0], allAtLowest)
	return r, nil
}

// T2e regenerates the "data anomalies" opportunity: injected non-power-law
// sources surfaced by goodness-of-fit ranking.
func T2e(sc Scale) (*Report, error) {
	const frac = 0.05
	e, tb, d, err := lofarEngine(sc, frac)
	if err != nil {
		return nil, err
	}
	m, err := captureSpectra(e, tb)
	if err != nil {
		return nil, err
	}
	truth := map[int64]bool{}
	nAnom := 0
	for id, tr := range d.Truth {
		truth[id] = tr.Anomalous
		if tr.Anomalous {
			nAnom++
		}
	}
	ranked := anomaly.RankGroups(m)
	r := &Report{
		ID: "T2e", Title: "anomalous sources ranked by goodness of fit",
		PaperClaim: "observations that do not fit the model stand out through large residual errors; a small number of radio sources have intensity unrelated to frequency",
	}
	r.addf("injected %d anomalous sources among %d (%.0f%%)", nAnom, len(d.Truth), frac*100)
	r.addf("%-6s %10s %10s %12s", "rank", "source", "1-R²", "true anomaly")
	for i := 0; i < 5 && i < len(ranked); i++ {
		r.addf("%-6d %10d %10.4f %12v", i+1, ranked[i].Key, ranked[i].Score, truth[ranked[i].Key])
	}
	for _, k := range []int{nAnom, 2 * nAnom} {
		p, rc := anomaly.PrecisionRecallAtK(ranked, truth, k)
		r.addf("precision@%d = %.3f, recall@%d = %.3f", k, p, k, rc)
	}
	p, rc := anomaly.PrecisionRecallAtK(ranked, truth, nAnom)
	r.Measured = fmt.Sprintf("precision@|anomalies| = %.3f, recall = %.3f", p, rc)
	if nAnom > 3 && (p < 0.7 || rc < 0.7) {
		return r, fmt.Errorf("repro T2e: anomaly ranking too weak (p=%.2f r=%.2f)", p, rc)
	}
	return r, nil
}

// T2f regenerates the "data or model changes" challenge: staleness
// detection, trust revocation, and refit.
func T2f(sc Scale) (*Report, error) {
	e, tb, d, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	m, err := captureSpectra(e, tb)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "T2f", Title: "staleness detection and refit on data change",
		PaperClaim: "changing or added observations can change fit of the model dramatically; check quality measures and switch/refit when appropriate",
	}
	r.addf("initial model: version %d, median R² = %.4f, fitted at %d rows", m.Version, m.Quality.MedianR2, m.FittedRows)
	// Trust policy for this deployment: moderate quality bar, tight
	// staleness bar (drift shows up as growth before it shows up as R²).
	pol := modelstore.SelectionPolicy{MinMedianR2: 0.7, MaxStalenessFrac: 0.2}

	// The telescope keeps observing: each source produces new observations
	// that follow its own law, but the instrument drifts — new intensities
	// are miscalibrated by 5%.
	before := tb.NumRows()
	rng := rand.New(rand.NewSource(sc.Seed + 99))
	for _, tr := range d.Truth {
		for o := 0; o < sc.LOFARObs/2; o++ {
			nu := synth.Bands[o%len(synth.Bands)]
			intensity := tr.P * math.Pow(nu, tr.Alpha) * (1 + 0.05*rng.NormFloat64()) * 0.95
			if err := tb.AppendRow([]expr.Value{
				expr.Int(tr.ID), expr.Float(nu), expr.Float(intensity),
			}); err != nil {
				return nil, err
			}
		}
	}
	st := m.StalenessAgainst(tb)
	r.addf("appended %d drifted rows: growth fraction = %.2f (threshold %.2f)",
		tb.NumRows()-before, st.GrowthFrac, pol.MaxStalenessFrac)
	if _, err := e.Models.BestFor("measurements", "intensity", tb, pol); err == nil {
		return nil, fmt.Errorf("repro T2f: stale model still trusted")
	}
	r.addf("stale model no longer selected for approximate answering")

	//lint:ignore walgate repro harness drives an in-memory engine with no WAL attached; model-store calls here are the scenario under test
	m2, err := e.Models.Refit("spectra", tb)
	if err != nil {
		return nil, err
	}
	r.addf("refit: version %d, median R² = %.4f over %d rows", m2.Version, m2.Quality.MedianR2, m2.FittedRows)
	if _, err := e.Models.BestFor("measurements", "intensity", tb, pol); err != nil {
		return nil, fmt.Errorf("repro T2f: refit model not selected: %w", err)
	}
	r.addf("refit model trusted again (quality judged on the mixed data: R² drops, reflecting the drift)")
	r.Measured = fmt.Sprintf("staleness %.2f triggered revocation; refit v%d R²=%.3f (vs v1 R²=%.3f on pre-drift data)",
		st.GrowthFrac, m2.Version, m2.Quality.MedianR2, m.Quality.MedianR2)
	return r, nil
}

// T2g regenerates the "multiple, partial or grouped models" challenge:
// best-model selection among overlapping models and hybrid routing for a
// partial model.
func T2g(sc Scale) (*Report, error) {
	e, tb, _, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	// Two competing whole-table models...
	good, err := captureSpectra(e, tb)
	if err != nil {
		return nil, err
	}
	//lint:ignore walgate repro harness drives an in-memory engine with no WAL attached; model-store calls here are the scenario under test
	poor, err := e.Models.Capture(tb, modelstore.Spec{
		Name: "linear_in_nu", Table: "measurements",
		Formula: "intensity ~ c0 + c1*nu",
		Inputs:  []string{"nu"}, GroupBy: "source",
	})
	if err != nil {
		return nil, err
	}
	best, err := e.Models.BestFor("measurements", "intensity", tb, modelstore.SelectionPolicy{MinMedianR2: 0})
	if err != nil {
		return nil, err
	}
	// ...and one partial model fitted on a restricted region.
	w, _ := expr.Parse("nu > 0.13")
	//lint:ignore walgate repro harness drives an in-memory engine with no WAL attached; model-store calls here are the scenario under test
	if _, err := e.Models.Capture(tb, modelstore.Spec{
		Name: "upper_bands", Table: "measurements",
		Formula: "intensity ~ q * pow(nu, beta)",
		Inputs:  []string{"nu"}, GroupBy: "source",
		Where: w, Start: map[string]float64{"q": 1, "beta": -1},
	}); err != nil {
		return nil, err
	}

	r := &Report{
		ID: "T2g", Title: "model selection and partial-coverage routing",
		PaperClaim: "multiple high-quality models may overlap (selection is not obvious); models fitted on restricted subsets apply only there — hybrid plans must mix model and raw tuples",
	}
	r.addf("candidates: %-14s median R² = %.4f", good.Spec.Name, good.Quality.MedianR2)
	r.addf("            %-14s median R² = %.4f", poor.Spec.Name, poor.Quality.MedianR2)
	r.addf("selected: %s (higher median R², lower residual SE tiebreak)", best.Spec.Name)
	if best.Spec.Name != "spectra" {
		return nil, fmt.Errorf("repro T2g: selection picked %q", best.Spec.Name)
	}

	// Force the partial model and run a query spanning both regions.
	//lint:ignore walgate repro harness drives an in-memory engine with no WAL attached; model-store calls here are the scenario under test
	e.Models.Drop("spectra")
	//lint:ignore walgate repro harness drives an in-memory engine with no WAL attached; model-store calls here are the scenario under test
	e.Models.Drop("linear_in_nu")
	opts := aqp.DefaultOptions()
	opts.Policy.MinMedianR2 = 0.5
	st, _ := sql.Parse("APPROX SELECT count(*) FROM measurements")
	plan, err := aqp.BuildApproxSelect(e.Catalog, e.Models, st.(*sql.SelectStmt), opts)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(plan.Op)
	if err != nil {
		return nil, err
	}
	exact := e.MustExec("SELECT count(*) FROM measurements")
	approxN := rows[0][0].I
	exactLow := e.MustExec("SELECT count(*) FROM measurements WHERE nu < 0.13").Rows[0][0].I
	r.addf("partial model %q covers nu > 0.13 only → hybrid plan = %v", "upper_bands", plan.Hybrid)
	r.addf("count(*): hybrid %d vs exact %d (model side deduplicates repeated observations to grid points; raw side contributes %d exact rows)",
		approxN, exact.Rows[0][0].I, exactLow)
	if !plan.Hybrid {
		return nil, fmt.Errorf("repro T2g: expected a hybrid plan")
	}
	r.Measured = fmt.Sprintf("selection picked the better of two overlapping models; partial model produced a hybrid plan with %d raw rows stitched in", exactLow)
	return r, nil
}

// T2h regenerates the "parameter space enumeration" challenge: grid
// materialization cost as the enumerable domain grows.
func T2h(sc Scale) (*Report, error) {
	r := &Report{
		ID: "T2h", Title: "grid materialization cost vs domain size",
		PaperClaim: "enumerable columns (small value sets, integer timestamps) let the model generate tuples; the grid grows with the domain product, so enumeration must be bounded",
	}
	r.addf("%-12s %12s %12s %14s", "timestamps", "sensors", "grid rows", "materialize")
	for _, steps := range []int{250, 500, 1000, 2000} {
		d := synth.GenerateSensors(synth.SensorConfig{
			Sensors: sc.SensorCount, Steps: steps, Noise: 0.2, Seed: sc.Seed,
		})
		tb, err := synth.SensorTable("readings", d)
		if err != nil {
			return nil, err
		}
		store := modelstore.NewStore()
		m, err := store.Capture(tb, modelstore.Spec{
			Name: "trend", Table: "readings",
			Formula: "temp ~ a + b*t", Inputs: []string{"t"}, GroupBy: "sensor",
		})
		if err != nil {
			return nil, err
		}
		doms, err := aqp.DomainsFor(tb.Chunks(), []string{"t"}, steps+1)
		if err != nil {
			return nil, err
		}
		scan, err := aqp.NewModelScan(m, doms, nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		op, err := exec.Lower(scan, 1)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(op)
		if err != nil {
			return nil, err
		}
		dur := time.Since(t0)
		r.addf("%-12d %12d %12d %14v", steps, sc.SensorCount, len(rows), dur.Round(time.Microsecond))
	}
	// And the guard: a continuous column refuses to enumerate.
	d := synth.GenerateSensors(synth.SensorConfig{Sensors: 2, Steps: 200, Noise: 0.3, Seed: sc.Seed})
	ctb, err := synth.SensorTable("readings", d)
	if err != nil {
		return nil, err
	}
	if _, ok := aqp.EnumerableValues(ctb.Chunks(), "temp", 50); ok {
		return nil, fmt.Errorf("repro T2h: continuous column wrongly enumerable")
	}
	r.addf("continuous column (temp) correctly rejected as non-enumerable at threshold 50")
	r.Measured = "grid rows scale linearly with the timestamp domain; enumeration bounded by the distinct-value threshold"
	return r, nil
}

// BloomLegalSet encodes every observed (group, inputs) combination of one
// view, grouped by the BIGINT column groupCol, in a Bloom filter sized for
// fpRate. Probe it with ContainsUint64s(uint64(group),
// math.Float64bits(input)...).
func BloomLegalSet(v *table.ChunkView, groupCol string, inputCols []string, fpRate float64) (*bloom.Filter, error) {
	group, inputs, err := v.Numeric(groupCol, inputCols)
	if err != nil {
		return nil, err
	}
	f := bloom.New(v.Rows(), fpRate)
	parts := make([]uint64, 1+len(inputCols))
	for r := range group {
		parts[0] = uint64(group[r])
		for i := range inputs {
			parts[1+i] = math.Float64bits(inputs[i][r])
		}
		f.AddUint64s(parts...)
	}
	return f, nil
}

// T2i regenerates the "legal parameter combinations" challenge: the exact
// set the planner keeps vs a Bloom filter over observed (source, nu) pairs.
func T2i(sc Scale) (*Report, error) {
	_, tb, d, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	v := tb.Chunks()
	exact, err := aqp.BuildLegalSet(v, "source", []string{"nu"})
	if err != nil {
		return nil, err
	}
	bl, err := BloomLegalSet(v, "source", []string{"nu"}, 0.01)
	if err != nil {
		return nil, err
	}
	blContains := func(src int64, nu float64) bool {
		return bl.ContainsUint64s(uint64(src), math.Float64bits(nu))
	}
	// Probe with combinations that never occurred: unknown frequency.
	fp := 0
	probes := 0
	for src := int64(1); src <= int64(sc.LOFARSources); src++ {
		for _, nu := range []float64{0.20, 0.25} {
			probes++
			if blContains(src, nu) {
				fp++
			}
			if exact.Contains(src, []float64{nu}) {
				return nil, fmt.Errorf("repro T2i: exact set accepted an illegal combination")
			}
		}
	}
	// No false negatives on a sample of real combinations.
	for i := 0; i < 1000 && i < len(d.Source); i++ {
		if !blContains(d.Source[i], d.Nu[i]) {
			return nil, fmt.Errorf("repro T2i: bloom false negative")
		}
	}
	r := &Report{
		ID: "T2i", Title: "legal combination filters: exact set vs Bloom filter",
		PaperClaim: "point queries for combinations absent from the original data would violate relational semantics; a compressed lookup structure (e.g. Bloom filters) can encode all legal combinations",
	}
	r.addf("%-14s %12s %16s %12s", "structure", "bytes", "false positives", "exact?")
	r.addf("%-14s %12d %16s %12v", "hash set", exact.SizeBytes(), "0 (by construction)", true)
	r.addf("%-14s %12d %15.3f%% %12v", "bloom (1%)", bl.SizeBytes(), 100*float64(fp)/float64(probes), false)
	r.addf("bloom/exact size ratio = %.3f; zero false negatives on %d observed combos",
		float64(bl.SizeBytes())/float64(exact.SizeBytes()), 1000)
	r.Measured = fmt.Sprintf("bloom uses %.1f%% of the exact set's memory at %.2f%% observed FPR",
		100*float64(bl.SizeBytes())/float64(exact.SizeBytes()), 100*float64(fp)/float64(probes))
	if float64(fp)/float64(probes) > 0.05 {
		return r, fmt.Errorf("repro T2i: FPR %.3f far above the 1%% target", float64(fp)/float64(probes))
	}
	return r, nil
}
