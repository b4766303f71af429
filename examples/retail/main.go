// Retail: the paper's proposed future evaluation — benchmark-style sales
// data with "considerable regularity", queried approximately from captured
// models and compared against sampling and histogram baselines.
package main

import (
	"fmt"
	"log"
	"math"

	datalaws "datalaws"
	"datalaws/internal/histsyn"
	"datalaws/internal/synth"
)

func main() {
	cfg := synth.RetailConfig{Stores: 25, Days: 730, Noise: 0.04, Seed: 13}
	d := synth.GenerateRetail(cfg)
	tb, err := synth.RetailTable("sales", d)
	if err != nil {
		log.Fatal(err)
	}
	eng := datalaws.NewEngine()
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	view := tb.Chunks()
	fmt.Printf("sales: %d rows (%d stores × %d days)\n", view.Rows(), cfg.Stores, cfg.Days)

	// The analyst's model: linear growth plus the known weekly cycle,
	// encoded with sin/cos terms at ω = 2π/7 so the formula stays linear in
	// its parameters (amplitude and phase fold into b2, b3) — the engine
	// solves it by direct OLS.
	res := eng.MustExec(`FIT MODEL growth ON sales
		AS 'revenue ~ b0 + b1*day + b2*sin(0.8975979010256552*day) + b3*cos(0.8975979010256552*day)'
		INPUTS (day) GROUP BY store`)
	fmt.Println(res.Info)

	// A "benchmark query": average revenue in the second year, per store.
	q := "SELECT store, avg(revenue) AS avg_rev FROM sales WHERE day >= 365 GROUP BY store ORDER BY avg_rev DESC LIMIT 5"
	fmt.Println("\nexact top-5 stores by year-2 average revenue:")
	fmt.Print(datalaws.FormatResult(eng.MustExec(q)))
	fmt.Println("approximate (zero IO, from the captured model):")
	fmt.Print(datalaws.FormatResult(eng.MustExec("APPROX " + q)))

	// Error comparison on a global aggregate: model vs histogram synopsis.
	exact := eng.MustExec("SELECT avg(revenue) FROM sales WHERE day >= 365").Rows[0][0].F
	approx := eng.MustExec("APPROX SELECT avg(revenue) FROM sales WHERE day >= 365").Rows[0][0].F

	_, salesCols, err := view.Numeric("", []string{"revenue", "day"})
	if err != nil {
		log.Fatal(err)
	}
	rev, days := salesCols[0], salesCols[1]
	m, _ := eng.Models.Get("growth")
	buckets := m.ParamSizeBytes() / 24 // equal storage budget
	h, err := histsyn.BuildEquiWidth(days, buckets)
	if err != nil {
		log.Fatal(err)
	}
	for i := range h.Sums {
		h.Sums[i] = 0
	}
	lo, w := h.Bounds[0], h.Bounds[1]-h.Bounds[0]
	for i, dy := range days {
		b := int((dy - lo) / w)
		if b >= len(h.Sums) {
			b = len(h.Sums) - 1
		}
		h.Sums[b] += rev[i]
	}
	histAvg := h.EstimateSum(365, 730) / h.EstimateCount(365, 730)

	fmt.Printf("\navg(revenue) for year 2 — exact %.2f\n", exact)
	fmt.Printf("  captured model : %.2f (%.3f%% error)\n", approx, 100*math.Abs(approx-exact)/exact)
	fmt.Printf("  histogram      : %.2f (%.3f%% error) at the same %d-byte budget\n",
		histAvg, 100*math.Abs(histAvg-exact)/exact, m.ParamSizeBytes())
}
