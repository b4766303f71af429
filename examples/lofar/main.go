// LOFAR transients: the paper's §2 case study end to end — generate the
// radio-astronomy dataset, run the Figure 2 interception workflow over an
// actual TCP connection, inspect Table 1's compression, and surface the
// anomalous sources §4.2 cares about.
package main

import (
	"fmt"
	"log"

	datalaws "datalaws"
	"datalaws/internal/anomaly"
	"datalaws/internal/capture"
	"datalaws/internal/server"
	"datalaws/internal/synth"
)

func main() {
	// The telescope: 4,000 sources (scaled-down from the paper's 35,692 for
	// a fast demo; pass through cmd/repro -scale full for the real size).
	cfg := synth.LOFARConfig{
		Sources: 4000, ObsPerSource: 40, NoiseFrac: 0.05, AnomalyFrac: 0.02, Seed: 7,
	}
	d := synth.GenerateLOFAR(cfg)
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		log.Fatal(err)
	}

	eng := datalaws.NewEngine()
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measurements: %d rows from %d sources (%.1f MB raw)\n",
		tb.NumRows(), cfg.Sources, float64(tb.RawSizeBytes())/1e6)

	// --- Figure 2 over TCP: the astronomer's statistical session ---
	srv := server.New(eng, nil)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	straw, err := capture.NewStrawman(cli, "measurements")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(1) strawman wraps %q: %d rows, columns %v\n",
		straw.Table, straw.NumRows(), straw.Columns())

	sum, err := straw.Fit("spectra", "intensity ~ p * pow(nu, alpha)", []string{"nu"},
		&capture.FitOptions{GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(2-3) fit offloaded and captured: %d groups, median R² = %.4f, parameter table %.0f KB (%.1f%% of raw)\n",
		sum.Groups, sum.MedianR2, float64(sum.ParamTableBytes)/1e3,
		100*float64(sum.ParamTableBytes)/float64(tb.RawSizeBytes()))

	ans, err := straw.Point("spectra", 42, []float64{0.14}, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(4-5) I(source=42, nu=0.14) ≈ %.4f with 95%% bounds [%.4f, %.4f]\n",
		ans.Value, ans.Lo, ans.Hi)

	// --- §4.2 data anomalies: sources where nature deviates from the law ---
	m, _ := eng.Models.Get("spectra")
	ranked := anomaly.RankGroups(m)
	fmt.Println("\nmost anomalous sources by goodness of fit (candidates for follow-up):")
	fmt.Printf("%-8s %-10s %-10s %-12s\n", "rank", "source", "1-R²", "truly anomalous?")
	hits := 0
	for i := 0; i < 10; i++ {
		isAnom := d.Truth[ranked[i].Key].Anomalous
		if isAnom {
			hits++
		}
		fmt.Printf("%-8d %-10d %-10.4f %-12v\n", i+1, ranked[i].Key, ranked[i].Score, isAnom)
	}
	fmt.Printf("%d/10 of the top-ranked sources are injected anomalies\n", hits)

	// --- approximate aggregate straight through SQL ---
	res := eng.MustExec("APPROX SELECT count(*), avg(intensity) FROM measurements WHERE nu = 0.12")
	fmt.Println("\nAPPROX aggregate at the 0.12 GHz band (zero IO):")
	fmt.Print(datalaws.FormatResult(res))
	exact := eng.MustExec("SELECT count(*), avg(intensity) FROM measurements WHERE nu = 0.12")
	fmt.Println("exact reference:")
	fmt.Print(datalaws.FormatResult(exact))
}
