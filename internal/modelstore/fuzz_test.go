package modelstore_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"datalaws/internal/aqp"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/synth"
)

// FuzzModelRecord feeds arbitrary bytes to Store.Load, the decoder behind
// models.json and (through the same record decoder) replica deltas.
// Nothing may panic; an accepted catalog must answer a WITH ERROR point
// lookup on every fitted group without panicking, and must survive a
// Save→Load round trip unchanged.
func FuzzModelRecord(f *testing.F) {
	d := synth.GenerateLOFAR(synth.LOFARConfig{Sources: 3, ObsPerSource: 12, NoiseFrac: 0.03, Seed: 4})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		f.Fatal(err)
	}
	s := modelstore.NewStore()
	spec := &modelstore.Spec{
		Name: "spectra", Table: "measurements", Formula: "intensity ~ p * pow(nu, alpha)",
		Inputs: []string{"nu"}, GroupBy: "source", Where: expr.MustParse("nu > 0.1"),
		Start: map[string]float64{"p": 1, "alpha": -1},
	}
	if _, err := s.Capture(tb, *spec); err != nil {
		f.Fatal(err)
	}
	flat := *spec
	flat.Name, flat.GroupBy, flat.Where = "flat", "", nil
	if _, err := s.Capture(tb, flat); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"format_version":1,"models":[{"name":"m","table":"t","formula":"y ~ a * x + b","inputs":["x"],"group_by":"g",` +
		`"groups":[{"key":1,"params":[1,2],"residual_se":0.1,"n":5,"df":3,"cov":[[1]]},{"key":1,"params":[1,2],"n":5,"df":3}]}]}`))
	f.Add([]byte(`{"format_version":1,"models":[{"name":"m","table":"t","formula":"y ~ a","inputs":[],"groups":[{"key":0,"params":[1],"n":-1,"df":-2}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := modelstore.NewStore()
		if err := s.Load(bytes.NewReader(data)); err != nil {
			return
		}
		for _, m := range s.List() {
			inputs := make([]float64, len(m.Model.Inputs))
			for i := range inputs {
				inputs[i] = 1.5
			}
			for _, key := range m.Order {
				_, _, _, _ = aqp.PointLookup(m, key, inputs, 0.95, 1)
			}
		}
		var saved bytes.Buffer
		if err := s.Save(&saved); err != nil {
			t.Fatalf("save: %v", err)
		}
		back := modelstore.NewStore()
		if err := back.Load(&saved); err != nil {
			t.Fatalf("a saved catalog does not load: %v", err)
		}
		if a, b := records(t, s), records(t, back); a != b {
			t.Fatalf("round trip changed the catalog\nfirst  %s\nsecond %s", a, b)
		}
	})
}

// records renders a store's models in name order, as saved.
func records(t *testing.T, s *modelstore.Store) string {
	var recs []modelstore.ModelRecord
	for _, m := range s.List() {
		recs = append(recs, modelstore.RecordOf(m))
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
