package anomaly

import (
	"math"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/synth"
	"datalaws/internal/table"
)

func fixture(t *testing.T, anomalyFrac float64) (*table.Table, *modelstore.CapturedModel, map[int64]bool) {
	t.Helper()
	d := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: 60, ObsPerSource: 40, NoiseFrac: 0.03, AnomalyFrac: anomalyFrac, Seed: 41,
	})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	store := modelstore.NewStore()
	m, err := store.Capture(tb, modelstore.Spec{
		Name: "spectra", Table: "measurements",
		Formula: "intensity ~ p * pow(nu, alpha)",
		Inputs:  []string{"nu"}, GroupBy: "source",
		Start: map[string]float64{"p": 1, "alpha": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]bool{}
	for id, tr := range d.Truth {
		truth[id] = tr.Anomalous
	}
	return tb, m, truth
}

func TestRankGroupsFindsInjectedAnomalies(t *testing.T) {
	_, m, truth := fixture(t, 0.15)
	nAnom := 0
	for _, v := range truth {
		if v {
			nAnom++
		}
	}
	if nAnom == 0 {
		t.Skip("generator produced no anomalies at this seed")
	}
	ranked := RankGroups(m)
	if len(ranked) != 60 {
		t.Fatalf("ranked %d groups", len(ranked))
	}
	p, r := PrecisionRecallAtK(ranked, truth, nAnom)
	// Residual ranking should nail nearly all injected flat-spectrum
	// sources.
	if p < 0.8 || r < 0.8 {
		t.Fatalf("precision=%.2f recall=%.2f at k=%d", p, r, nAnom)
	}
}

func TestRankGroupsOrdering(t *testing.T) {
	_, m, _ := fixture(t, 0.1)
	ranked := RankGroups(m)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("ranking not descending")
		}
	}
}

func TestFailedGroupsRankFirst(t *testing.T) {
	tb, _, _ := fixture(t, 0)
	// Inject a group that cannot fit (too few rows).
	tb.AppendRow([]expr.Value{expr.Int(5555), expr.Float(0.12), expr.Float(1)})
	store := modelstore.NewStore()
	m, err := store.Capture(tb, modelstore.Spec{
		Name: "s2", Table: "measurements",
		Formula: "intensity ~ p * pow(nu, alpha)",
		Inputs:  []string{"nu"}, GroupBy: "source",
		Start: map[string]float64{"p": 1, "alpha": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ranked := RankGroups(m)
	if !ranked[0].Failed || ranked[0].Key != 5555 {
		t.Fatalf("failed group not first: %+v", ranked[0])
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	ranked := []GroupScore{{Key: 1}, {Key: 2}}
	p, r := PrecisionRecallAtK(ranked, map[int64]bool{}, 5)
	if p != 0 || r != 0 {
		t.Fatalf("empty truth: p=%g r=%g", p, r)
	}
	p, r = PrecisionRecallAtK(ranked, map[int64]bool{1: true}, 1)
	if p != 1 || r != 1 {
		t.Fatalf("perfect hit: p=%g r=%g", p, r)
	}
}

func TestPointOutliers(t *testing.T) {
	tb, m, _ := fixture(t, 0)
	// Inject one wild observation into a well-modeled source.
	tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.15), expr.Float(1000)})
	outs, err := PointOutliers(tb.Chunks(), m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("injected outlier not found")
	}
	top := outs[0]
	if top.Group != 1 || top.Observed != 1000 {
		t.Fatalf("top outlier = %+v", top)
	}
	if math.Abs(top.Z) < 5 {
		t.Fatalf("z = %g", top.Z)
	}
	// Ordering by |Z| descending.
	for i := 1; i < len(outs); i++ {
		if math.Abs(outs[i].Z) > math.Abs(outs[i-1].Z) {
			t.Fatal("outliers not sorted")
		}
	}
}

func TestPointOutliersCleanData(t *testing.T) {
	tb, m, _ := fixture(t, 0)
	outs, err := PointOutliers(tb.Chunks(), m, 6)
	if err != nil {
		t.Fatal(err)
	}
	// With 3% noise, nothing should be 6 residual SEs out.
	if len(outs) > 3 {
		t.Fatalf("clean data produced %d outliers at z>6", len(outs))
	}
}
