package synth

import (
	"math"
	"testing"

	"datalaws/internal/stats"
)

func TestGenerateLOFARShape(t *testing.T) {
	cfg := LOFARConfig{Sources: 100, ObsPerSource: 40, NoiseFrac: 0.05, AnomalyFrac: 0.1, Seed: 1}
	d := GenerateLOFAR(cfg)
	if len(d.Truth) != 100 {
		t.Fatalf("truth entries = %d", len(d.Truth))
	}
	if d.NumRows() < 100*30 || d.NumRows() > 100*55 {
		t.Fatalf("rows = %d, want ≈4000", d.NumRows())
	}
	if len(d.Nu) != d.NumRows() || len(d.Intensity) != d.NumRows() {
		t.Fatal("column lengths differ")
	}
	// Frequencies must come from the four bands.
	bandSet := map[float64]bool{}
	for _, b := range Bands {
		bandSet[b] = true
	}
	for _, nu := range d.Nu {
		if !bandSet[nu] {
			t.Fatalf("unexpected frequency %g", nu)
		}
	}
	// Roughly the configured fraction of anomalies.
	anom := 0
	for _, tr := range d.Truth {
		if tr.Anomalous {
			anom++
		}
	}
	if anom < 2 || anom > 25 {
		t.Fatalf("anomalies = %d for frac 0.1 of 100", anom)
	}
}

func TestGenerateLOFARDeterministic(t *testing.T) {
	cfg := LOFARConfig{Sources: 10, ObsPerSource: 8, NoiseFrac: 0.05, Seed: 7}
	a := GenerateLOFAR(cfg)
	b := GenerateLOFAR(cfg)
	if a.NumRows() != b.NumRows() {
		t.Fatal("row counts differ across runs")
	}
	for i := range a.Intensity {
		if a.Intensity[i] != b.Intensity[i] {
			t.Fatal("values differ across runs with same seed")
		}
	}
}

func TestLOFARFollowsPowerLaw(t *testing.T) {
	// Non-anomalous sources must track I = p·ν^α within noise.
	cfg := LOFARConfig{Sources: 20, ObsPerSource: 40, NoiseFrac: 0.02, AnomalyFrac: 0, Seed: 3}
	d := GenerateLOFAR(cfg)
	for i := range d.Source {
		tr := d.Truth[d.Source[i]]
		want := tr.P * math.Pow(d.Nu[i], tr.Alpha)
		rel := math.Abs(d.Intensity[i]-want) / want
		if rel > 0.15 {
			t.Fatalf("row %d deviates %.1f%% from the law", i, rel*100)
		}
	}
}

func TestLOFARColumns(t *testing.T) {
	d := GenerateLOFAR(LOFARConfig{Sources: 5, ObsPerSource: 8, Seed: 1})
	cols := d.Columns()
	for _, name := range []string{"source", "nu", "intensity"} {
		if len(cols[name]) != d.NumRows() {
			t.Fatalf("column %q length", name)
		}
	}
}

func TestLOFARTable(t *testing.T) {
	d := GenerateLOFAR(LOFARConfig{Sources: 5, ObsPerSource: 8, Seed: 2})
	tb, err := LOFARTable("m", d)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != d.NumRows() {
		t.Fatal("row count mismatch")
	}
	if tb.Schema().Index("intensity") != 2 {
		t.Fatal("schema")
	}
	// Spot check a row.
	head, err := tb.Chunks().Head(4)
	if err != nil {
		t.Fatal(err)
	}
	row := head[3]
	if row[0].I != d.Source[3] || row[1].F != d.Nu[3] || row[2].F != d.Intensity[3] {
		t.Fatalf("row 3 = %v", row)
	}
}

func TestGenerateSensors(t *testing.T) {
	cfg := SensorConfig{Sensors: 5, Steps: 500, Noise: 0.1, Seed: 4}
	d := GenerateSensors(cfg)
	if d.NumRows() != 2500 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	// Timestamps are 0..Steps-1 per sensor.
	if d.T[0] != 0 || d.T[499] != 499 || d.T[500] != 0 {
		t.Fatal("timestamp layout")
	}
	// Temperatures near the base value.
	m := stats.Mean(d.Temp)
	if m < 10 || m > 35 {
		t.Fatalf("mean temp = %g", m)
	}
	tb, err := SensorTable("s", d)
	if err != nil || tb.NumRows() != 2500 {
		t.Fatalf("table: %v", err)
	}
}

func TestGenerateRetail(t *testing.T) {
	cfg := RetailConfig{Stores: 4, Days: 365, Noise: 0.02, Seed: 5}
	d := GenerateRetail(cfg)
	if d.NumRows() != 4*365 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	for _, r := range d.Revenue {
		if r <= 0 {
			t.Fatalf("non-positive revenue %g", r)
		}
	}
	// Revenue trends upward: late mean above early mean for each store.
	for s := 0; s < 4; s++ {
		start := s * 365
		early := stats.Mean(d.Revenue[start : start+100])
		late := stats.Mean(d.Revenue[start+265 : start+365])
		if late < early*0.95 {
			t.Fatalf("store %d: revenue does not trend up (%.0f → %.0f)", s+1, early, late)
		}
	}
	tb, err := RetailTable("r", d)
	if err != nil || tb.NumRows() != d.NumRows() {
		t.Fatalf("table: %v", err)
	}
}

func TestDefaultsAreSane(t *testing.T) {
	if c := DefaultLOFAR(); c.Sources != 35692 {
		t.Fatalf("default sources = %d, want the paper's 35692", c.Sources)
	}
	if c := DefaultSensors(); c.Sensors <= 0 || c.Steps <= 0 {
		t.Fatal("sensor defaults")
	}
	if c := DefaultRetail(); c.Stores <= 0 || c.Days <= 0 {
		t.Fatal("retail defaults")
	}
}
