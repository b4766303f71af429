package compress

import (
	"math"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/synth"
	"datalaws/internal/table"
)

func fixture(t *testing.T) (*table.Table, *modelstore.CapturedModel) {
	t.Helper()
	d := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: 40, ObsPerSource: 40, NoiseFrac: 0.03, AnomalyFrac: 0, Seed: 31,
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
	return tb, m
}

// intensityOf extracts the observed column of one view.
func intensityOf(t *testing.T, v *table.ChunkView) []float64 {
	t.Helper()
	_, cols, err := v.Numeric("", []string{"intensity"})
	if err != nil {
		t.Fatal(err)
	}
	return cols[0]
}

func TestLosslessRoundTrip(t *testing.T) {
	tb, m := fixture(t)
	v := tb.Chunks()
	cc, err := CompressOutput(v, m, Lossless, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cc.Decompress(v, m)
	if err != nil {
		t.Fatal(err)
	}
	orig := intensityOf(t, v)
	if len(back) != len(orig) {
		t.Fatalf("length %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		if math.Float64bits(back[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("row %d: %v != %v (lossless must be bit exact)", i, back[i], orig[i])
		}
	}
}

func TestBoundedLossRespectsEpsilon(t *testing.T) {
	tb, m := fixture(t)
	v := tb.Chunks()
	const eps = 1e-3
	cc, err := CompressOutput(v, m, BoundedLoss, eps)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cc.Decompress(v, m)
	if err != nil {
		t.Fatal(err)
	}
	orig := intensityOf(t, v)
	var worst float64
	for i := range orig {
		d := math.Abs(back[i] - orig[i])
		if d > worst {
			worst = d
		}
	}
	if worst > eps/2+1e-12 {
		t.Fatalf("worst error %g exceeds eps/2 = %g", worst, eps/2)
	}
}

func TestBoundedLossBeatsFlate(t *testing.T) {
	tb, m := fixture(t)
	v := tb.Chunks()
	raw := Float64Bytes(intensityOf(t, v))
	flateSize, err := FlateRoundTrip(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Quantize to about 1% of the typical residual scale.
	eps := m.Quality.MedianResidualSE / 10
	cc, err := CompressOutput(v, m, BoundedLoss, eps)
	if err != nil {
		t.Fatal(err)
	}
	semSize := cc.SizeBytes(m)
	// The paper's claim: the user model beats the generic compressor on
	// model-conforming data (SPARTAN barely did; the user model should).
	if semSize >= flateSize {
		t.Fatalf("semantic %d bytes >= flate %d bytes", semSize, flateSize)
	}
}

func TestCompressionRatioAccounting(t *testing.T) {
	tb, m := fixture(t)
	cc, err := CompressOutput(tb.Chunks(), m, BoundedLoss, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// SizeBytes must include the parameter table (honest accounting).
	if cc.SizeBytes(m) <= len(cc.Payload) {
		t.Fatal("size must include parameter table overhead")
	}
}

func TestBadEpsilonRejected(t *testing.T) {
	tb, m := fixture(t)
	v := tb.Chunks()
	if _, err := CompressOutput(v, m, BoundedLoss, 0); err == nil {
		t.Fatal("want error for zero epsilon")
	}
	if _, err := CompressOutput(v, m, BoundedLoss, math.NaN()); err == nil {
		t.Fatal("want error for NaN epsilon")
	}
}

func TestRawSpillForUncoveredGroups(t *testing.T) {
	tb, m := fixture(t)
	// Add rows for a group with no fitted parameters.
	tb.AppendRow(rowOf(9999, 0.12, 7.5))
	tb.AppendRow(rowOf(9999, 0.15, 7.0))
	v := tb.Chunks()
	cc, err := CompressOutput(v, m, Lossless, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.RawVals) != 2 {
		t.Fatalf("raw spill = %d rows, want 2", len(cc.RawVals))
	}
	back, err := cc.Decompress(v, m)
	if err != nil {
		t.Fatal(err)
	}
	n := v.Rows()
	if back[n-2] != 7.5 || back[n-1] != 7.0 {
		t.Fatalf("spilled rows = %g, %g", back[n-2], back[n-1])
	}
}

// TestCompressOutputUnderAppend: while a writer keeps appending, a
// compressed column covers exactly the rows of the one view it was built
// from — observed values and predictions can never come from two append
// states (which used to index one past the other).
func TestCompressOutputUnderAppend(t *testing.T) {
	tb, m := fixture(t)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		// Bounded so 200 O(rows) compressions stay fast under -race.
		for i := 0; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tb.AppendRow(rowOf(int64(1+i%40), 0.15, 2.0)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		v := tb.Chunks()
		cc, err := CompressOutput(v, m, Lossless, 0)
		if err != nil {
			t.Fatal(err)
		}
		back, err := cc.Decompress(v, m)
		if err != nil {
			t.Fatal(err)
		}
		if cc.N != v.Rows() || len(back) != v.Rows() {
			t.Fatalf("call %d: compressed %d rows, decompressed %d, view has %d", i, cc.N, len(back), v.Rows())
		}
	}
	close(stop)
	<-done
}

func rowOf(src int64, nu, i float64) []expr.Value {
	return []expr.Value{expr.Int(src), expr.Float(nu), expr.Float(i)}
}

func TestWrongModelRejected(t *testing.T) {
	tb, m := fixture(t)
	v := tb.Chunks()
	cc, err := CompressOutput(v, m, Lossless, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := *m
	other.Spec.Name = "different"
	if _, err := cc.Decompress(v, &other); err == nil {
		t.Fatal("want model-mismatch error")
	}
}

func TestXORFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, 1.5, -2.25, math.Pi, math.Pi, 1e-300, -1e300}
	b := storage.EncodeXORFloats(vals)
	back, consumed, err := storage.DecodeXORFloats(b, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(b) {
		t.Fatalf("consumed %d of %d payload bytes", consumed, len(b))
	}
	if len(back) != len(vals) {
		t.Fatalf("len %d", len(back))
	}
	for i := range vals {
		if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("index %d: %v != %v", i, back[i], vals[i])
		}
	}
}

func TestQuantizedRoundTrip(t *testing.T) {
	vals := []float64{0.001, -0.002, 0.0005, 0, 12.3}
	const eps = 1e-4
	b := encodeQuantized(vals, eps)
	back, err := decodeQuantized(b, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(back[i]-vals[i]) > eps/2+1e-15 {
			t.Fatalf("index %d error %g", i, math.Abs(back[i]-vals[i]))
		}
	}
}

func TestFlateSize(t *testing.T) {
	raw := make([]byte, 10000) // all zeros compress very well
	n, err := FlateSize(raw)
	if err != nil || n >= len(raw)/10 {
		t.Fatalf("flate: %d bytes, err %v", n, err)
	}
}
