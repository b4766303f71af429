package modelstore

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"datalaws/internal/expr"
)

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	spec := powerSpec("spectra")
	w, _ := expr.Parse("nu > 0.1")
	spec.Where = w
	orig, err := s.Capture(tb, spec)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("spectra")
	if !ok {
		t.Fatal("model missing after load")
	}
	if got.Spec.Formula != orig.Spec.Formula {
		t.Fatalf("formula %q vs %q", got.Spec.Formula, orig.Spec.Formula)
	}
	if got.Spec.Where == nil || got.Spec.Where.String() != orig.Spec.Where.String() {
		t.Fatalf("where %v vs %v", got.Spec.Where, orig.Spec.Where)
	}
	if got.Version != orig.Version || got.FittedRows != orig.FittedRows {
		t.Fatal("snapshot fields lost")
	}
	if len(got.Groups) != len(orig.Groups) {
		t.Fatalf("groups %d vs %d", len(got.Groups), len(orig.Groups))
	}
	for key, og := range orig.Groups {
		gg, ok := got.Groups[key]
		if !ok {
			t.Fatalf("group %d missing", key)
		}
		for i := range og.Params {
			if math.Abs(og.Params[i]-gg.Params[i]) > 1e-12 {
				t.Fatalf("group %d param %d: %g vs %g", key, i, og.Params[i], gg.Params[i])
			}
		}
		if math.Abs(og.R2-gg.R2) > 1e-12 {
			t.Fatal("R2 lost")
		}
	}
	if math.Abs(got.Quality.MedianR2-orig.Quality.MedianR2) > 1e-12 {
		t.Fatal("quality not recomputed")
	}
	// The reloaded model must still evaluate: its compiled form was rebuilt
	// from source.
	g, ok := got.GroupFor(1)
	if !ok {
		t.Fatal("group 1 unusable after load")
	}
	v := got.Model.Eval(g.Params, []float64{0.14})
	if math.IsNaN(v) || v <= 0 {
		t.Fatalf("reloaded model evaluates to %g", v)
	}
	// And ForTable indexing was rebuilt.
	if len(s2.ForTable("measurements")) != 1 {
		t.Fatal("byTable index lost")
	}
}

func TestStoreLoadDuplicateRejected(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	if _, err := s.Capture(tb, powerSpec("spectra")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("want duplicate error loading into the same store")
	}
}

func TestStoreLoadBadInput(t *testing.T) {
	s := NewStore()
	if err := s.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("want decode error")
	}
	if err := s.Load(strings.NewReader(`{"format_version": 99}`)); err == nil {
		t.Fatal("want version error")
	}
	if err := s.Load(strings.NewReader(`{"format_version":1,"models":[{"name":"x","formula":"bad","inputs":[]}]}`)); err == nil {
		t.Fatal("want formula error")
	}
}

func TestSaveParamTableCSV(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	m, err := s.Capture(tb, powerSpec("spectra"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveParamTableCSV(m, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "group_key,alpha,p,residual_se,r2,n") {
		t.Fatalf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 31 { // header + 30 groups
		t.Fatalf("rows: %d", len(strings.Split(strings.TrimSpace(out), "\n")))
	}
}

// TestDecoderRejectsUnservableRecords: the model-record decoder behind
// Store.Load (models.json) and ModelFromRecord (replica deltas) refuses a
// record the engine could not serve — a fitted group whose covariance is
// not p×p (its first WITH ERROR point would index past it), a group key
// listed twice (every APPROX aggregate would count it twice), and negative
// row or residual degree-of-freedom counts.
func TestDecoderRejectsUnservableRecords(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	m, err := s.Capture(tb, powerSpec("spectra"))
	if err != nil {
		t.Fatal(err)
	}
	good := RecordOf(m)
	if len(good.Groups) < 2 || len(good.Groups[0].Cov) != 2 {
		t.Fatalf("fixture: %d groups, first cov %d×?", len(good.Groups), len(good.Groups[0].Cov))
	}
	edited := func(edit func(*ModelRecord)) ModelRecord {
		var r ModelRecord
		b, _ := json.Marshal(good)
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		edit func(*ModelRecord)
	}{
		{"1x1 cov for 2 params", func(r *ModelRecord) { r.Groups[0].Cov = [][]float64{{1}} }},
		{"ragged cov", func(r *ModelRecord) { r.Groups[0].Cov[1] = r.Groups[0].Cov[1][:1] }},
		{"duplicate group", func(r *ModelRecord) { r.Groups = append(r.Groups, r.Groups[0]) }},
		{"negative N", func(r *ModelRecord) { r.Groups[0].N = -1 }},
		{"negative DF", func(r *ModelRecord) { r.Groups[0].DF = -3 }},
	} {
		bad := edited(tc.edit)
		if _, err := ModelFromRecord(bad); err == nil {
			t.Errorf("%s: ModelFromRecord accepted it", tc.name)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(map[string]any{"format_version": 1, "models": []ModelRecord{bad}}); err != nil {
			t.Fatal(err)
		}
		if err := NewStore().Load(&buf); err == nil {
			t.Errorf("%s: Store.Load accepted it", tc.name)
		}
	}
	// Unedited records, and a fitted group without a covariance (a singular
	// information matrix), still decode.
	for _, r := range []ModelRecord{good, edited(func(r *ModelRecord) { r.Groups[0].Cov = nil })} {
		if _, err := ModelFromRecord(r); err != nil {
			t.Fatalf("valid record rejected: %v", err)
		}
	}
}
