// Sensors: the MauveDB-style scenario — per-sensor linear trend models over
// integer timestamps, analytic aggregate solutions (§4.2), enumerable
// timestamp domains, and semantic compression of the readings.
package main

import (
	"fmt"
	"log"

	datalaws "datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/compress"
	"datalaws/internal/modelstore"
	"datalaws/internal/synth"
)

func main() {
	d := synth.GenerateSensors(synth.SensorConfig{
		Sensors: 30, Steps: 1500, Noise: 0.25, Seed: 11,
	})
	tb, err := synth.SensorTable("readings", d)
	if err != nil {
		log.Fatal(err)
	}
	eng := datalaws.NewEngine()
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	view := tb.Chunks()
	fmt.Printf("readings: %d rows from %d sensors\n", view.Rows(), 30)

	// Capture a per-sensor linear trend (linear in parameters AND inputs:
	// fitted by direct OLS, aggregated analytically).
	res := eng.MustExec(`FIT MODEL trend ON readings
		AS 'temp ~ a + b*t' INPUTS (t) GROUP BY sensor`)
	fmt.Println(res.Info)
	m, _ := eng.Models.Get("trend")

	// The timestamp column is enumerable (§4.2): integer timestamps.
	doms, err := aqp.DomainsFor(view, []string{"t"}, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("timestamp domain: %d distinct integer values (enumerable)\n", len(doms[0].Vals))

	// Analytic aggregates: no grid, no scan.
	agg, err := aqp.AnalyticAggregates(m, doms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analytic over the model: avg=%.3f min=%.3f max=%.3f over %d virtual rows\n",
		agg.Avg, agg.Min, agg.Max, agg.Count)
	exact := eng.MustExec("SELECT avg(temp), min(temp), max(temp) FROM readings")
	fmt.Println("exact over the data:")
	fmt.Print(datalaws.FormatResult(exact))
	fmt.Println("(the linear trend's range is tighter: the daily sine lives in the residuals)")

	// Semantic compression of the temperature column with a bounded error
	// of 0.1 °C — the residuals carry the daily wave, so the win is honest.
	cc, err := compress.CompressOutput(view, m, compress.BoundedLoss, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	raw := tb.RawSizeBytes() / 3 // one of three equal-width columns
	fmt.Printf("\nsemantic compression of temp (|err| ≤ 0.1): %d bytes vs %d raw (%.1f%%)\n",
		cc.SizeBytes(m), raw, 100*float64(cc.SizeBytes(m))/float64(raw))
	if _, err := cc.Decompress(view, m); err != nil {
		log.Fatal(err)
	}
	fmt.Println("round-trip verified within the error bound")

	// Staleness: the deployment keeps sampling; the model store notices.
	st := m.StalenessAgainst(tb)
	fmt.Printf("\nmodel fitted at %d rows; staleness growth fraction now %.3f (policy bar %.2f)\n",
		m.FittedRows, st.GrowthFrac, modelstore.DefaultPolicy.MaxStalenessFrac)
}
