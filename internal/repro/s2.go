package repro

import (
	"fmt"
	"math"
	"math/rand"

	"datalaws/internal/histsyn"
	"datalaws/internal/modelstore"
	"datalaws/internal/stats"
	"datalaws/internal/synth"
)

// rowSample is a uniform sample of row indexes over a two-column
// (key, value) relation, the shape a sampling AQP engine keeps for filtered
// aggregates. Its budget is 16 bytes per kept row (both columns).
type rowSample struct {
	keys, vals []float64
	popN       int
}

func sampleRows(keys, vals []float64, frac float64, seed int64) *rowSample {
	n := len(keys)
	k := int(math.Round(float64(n) * frac))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)[:k]
	s := &rowSample{popN: n, keys: make([]float64, k), vals: make([]float64, k)}
	for i, j := range idx {
		s.keys[i] = keys[j]
		s.vals[i] = vals[j]
	}
	return s
}

func (s *rowSample) meanWhere(pred func(key float64) bool) float64 {
	var sum float64
	n := 0
	for i, k := range s.keys {
		if pred(k) {
			sum += s.vals[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func (s *rowSample) sumWhere(pred func(key float64) bool) float64 {
	var sum float64
	n := 0
	for i, k := range s.keys {
		if pred(k) {
			sum += s.vals[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// Scale the sample sum up to the population.
	return sum * float64(s.popN) / float64(len(s.keys))
}

// S2 compares model-based approximate answering against the two classic
// alternatives the paper cites — uniform sampling (BlinkDB-style) and
// histogram synopses — at a matched storage budget: each baseline gets as
// many bytes as the captured model's parameter table.
func S2(sc Scale) (*Report, error) {
	r := &Report{
		ID: "S2", Title: "model AQP vs sampling vs histograms at equal storage",
		PaperClaim: "user models can provide approximations in a similar way to data synopses, but with higher accuracy, because they encode the user's domain knowledge",
	}

	// --- LOFAR: per-band average intensity ---
	e, tb, _, err := lofarEngine(sc, 0)
	if err != nil {
		return nil, err
	}
	m, err := captureSpectra(e, tb)
	if err != nil {
		return nil, err
	}
	budget := m.ParamSizeBytes()
	_, obs, err := tb.Chunks().Numeric("", []string{"intensity", "nu"})
	if err != nil {
		return nil, err
	}
	intensity, nus := obs[0], obs[1]

	band := synth.Bands[0]
	var exactVals []float64
	for i, nu := range nus {
		if nu == band {
			exactVals = append(exactVals, intensity[i])
		}
	}
	exactAvg := stats.Mean(exactVals)

	// Model answer.
	approx := e.MustExec(fmt.Sprintf("APPROX SELECT avg(intensity) FROM measurements WHERE nu = %g", band))
	modelAvg := approx.Rows[0][0].F
	modelErr := math.Abs(modelAvg-exactAvg) / exactAvg

	// Sampling at equal budget.
	frac := float64(budget) / float64(16*len(intensity))
	if frac > 1 {
		frac = 1
	}
	s := sampleRows(nus, intensity, frac, sc.Seed)
	sampleAvg := s.meanWhere(func(nu float64) bool { return nu == band })
	sampleErr := math.Abs(sampleAvg-exactAvg) / exactAvg

	// Histograms at equal budget: one per band (the synopsis a system would
	// keep for group-by-band queries); 3 float64 per bucket.
	bucketsPerBand := budget / 4 / 24
	if bucketsPerBand < 1 {
		bucketsPerBand = 1
	}
	h, err := histsyn.BuildEquiDepth(exactVals, bucketsPerBand)
	if err != nil {
		return nil, err
	}
	lo, hi := stats.MinMax(exactVals)
	histAvg := h.EstimateAvg(lo, hi)
	histErr := math.Abs(histAvg-exactAvg) / exactAvg

	r.addf("LOFAR: avg(intensity) at nu = %g; storage budget = %d bytes (the parameter table)", band, budget)
	r.addf("%-24s %14s %12s", "method", "estimate", "rel. error")
	r.addf("%-24s %14.5f %11.3f%%", "exact", exactAvg, 0.0)
	r.addf("%-24s %14.5f %11.3f%%", "captured model", modelAvg, modelErr*100)
	r.addf("%-24s %14.5f %11.3f%%", fmt.Sprintf("uniform sample %.3g", frac), sampleAvg, sampleErr*100)
	r.addf("%-24s %14.5f %11.3f%%", fmt.Sprintf("equi-depth hist ×%d", bucketsPerBand), histAvg, histErr*100)

	// --- Retail: revenue sum over a day range ---
	rd := synth.GenerateRetail(synth.RetailConfig{
		Stores: sc.RetailStores, Days: sc.RetailDays, Noise: 0.04, Seed: sc.Seed,
	})
	rtb, err := synth.RetailTable("sales", rd)
	if err != nil {
		return nil, err
	}
	rstore := modelstore.NewStore()
	// Growth plus the known weekly cycle (ω = 2π/7), linear in parameters.
	rm, err := rstore.Capture(rtb, modelstore.Spec{
		Name: "growth", Table: "sales",
		Formula: "revenue ~ b0 + b1*day + b2*sin(0.8975979010256552*day) + b3*cos(0.8975979010256552*day)",
		Inputs:  []string{"day"}, GroupBy: "store",
	})
	if err != nil {
		return nil, err
	}
	_, rcols, err := rtb.Chunks().Numeric("", []string{"revenue", "day"})
	if err != nil {
		return nil, err
	}
	rev, days := rcols[0], rcols[1]
	qlo, qhi := float64(sc.RetailDays/4), float64(sc.RetailDays/2)
	var exactSum float64
	for i := range rev {
		if days[i] >= qlo && days[i] <= qhi {
			exactSum += rev[i]
		}
	}
	var modelSum float64
	for _, key := range rm.Order {
		g := rm.Groups[key]
		if !g.OK() {
			continue
		}
		for day := qlo; day <= qhi; day++ {
			modelSum += rm.Model.Eval(g.Params, []float64{day})
		}
	}
	rBudget := rm.ParamSizeBytes()
	rfrac := float64(rBudget) / float64(16*len(rev))
	if rfrac > 1 {
		rfrac = 1
	}
	rs := sampleRows(days, rev, rfrac, sc.Seed+1)
	sampleSum := rs.sumWhere(func(d float64) bool { return d >= qlo && d <= qhi })
	rHistBuckets := rBudget / 24
	if rHistBuckets < 1 {
		rHistBuckets = 1
	}
	dh, err := buildDaySumHistogram(days, rev, rHistBuckets)
	if err != nil {
		return nil, err
	}
	histSum := dh.EstimateSum(qlo, qhi)

	mErr := math.Abs(modelSum-exactSum) / exactSum
	sErr := math.Abs(sampleSum-exactSum) / exactSum
	hErr := math.Abs(histSum-exactSum) / exactSum
	r.addf("")
	r.addf("Retail: sum(revenue) for day in [%g, %g]; budget = %d bytes", qlo, qhi, rBudget)
	r.addf("%-24s %14s %12s", "method", "estimate", "rel. error")
	r.addf("%-24s %14.0f %11.3f%%", "exact", exactSum, 0.0)
	r.addf("%-24s %14.0f %11.3f%%", "captured model", modelSum, mErr*100)
	r.addf("%-24s %14.0f %11.3f%%", fmt.Sprintf("uniform sample %.3g", rfrac), sampleSum, sErr*100)
	r.addf("%-24s %14.0f %11.3f%%", fmt.Sprintf("equi-width hist ×%d", rHistBuckets), histSum, hErr*100)

	r.Measured = fmt.Sprintf("LOFAR avg: model %.3f%% vs sample %.3f%% vs hist %.3f%%; retail sum: model %.3f%% vs sample %.3f%% vs hist %.3f%%",
		modelErr*100, sampleErr*100, histErr*100, mErr*100, sErr*100, hErr*100)
	if modelErr > sampleErr && modelErr > histErr && modelErr > 0.02 {
		return r, fmt.Errorf("repro S2: model AQP lost to both baselines (%.3f%% vs %.3f%%/%.3f%%)",
			modelErr*100, sampleErr*100, histErr*100)
	}
	return r, nil
}

// buildDaySumHistogram builds an equi-width histogram over day whose Sums
// carry revenue (a 1-D sum synopsis).
func buildDaySumHistogram(days, rev []float64, buckets int) (*histsyn.Histogram, error) {
	h, err := histsyn.BuildEquiWidth(days, buckets)
	if err != nil {
		return nil, err
	}
	lo := h.Bounds[0]
	w := h.Bounds[1] - h.Bounds[0]
	for i := range h.Sums {
		h.Sums[i] = 0
	}
	for i, d := range days {
		b := int((d - lo) / w)
		if b >= len(h.Sums) {
			b = len(h.Sums) - 1
		}
		if b < 0 {
			b = 0
		}
		h.Sums[b] += rev[i]
	}
	return h, nil
}
