package modelstore

import (
	"errors"
	"math"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/synth"
	"datalaws/internal/table"
)

func lofarFixture(t *testing.T) (*table.Table, *synth.LOFARData) {
	t.Helper()
	d := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: 30, ObsPerSource: 40, NoiseFrac: 0.03, AnomalyFrac: 0, Seed: 9,
	})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	return tb, d
}

func powerSpec(name string) Spec {
	return Spec{
		Name:    name,
		Table:   "measurements",
		Formula: "intensity ~ p * pow(nu, alpha)",
		Inputs:  []string{"nu"},
		GroupBy: "source",
		Start:   map[string]float64{"p": 1, "alpha": -1},
	}
}

// fixtureLayouts names the two storage shapes every fit test covers: the
// default chunk budget leaves the small fixtures entirely in the hot tail;
// the lowered one spreads them over sealed chunks plus a tail, so the fit
// reads through the decode cache and across seal boundaries.
var fixtureLayouts = []struct {
	name      string
	chunkRows int
}{{"tail-only", 0}, {"sealed-chunks", 48}}

// inEachLayout runs fit once per storage layout and requires the two fits to
// agree bit for bit: the rows are the same, only where they live differs.
func inEachLayout(t *testing.T, fit func(t *testing.T, sealed bool) *CapturedModel) {
	var models []*CapturedModel
	for _, l := range fixtureLayouts {
		l := l
		t.Run(l.name, func(t *testing.T) {
			if l.chunkRows > 0 {
				old := table.DefaultChunkRows
				table.DefaultChunkRows = l.chunkRows
				defer func() { table.DefaultChunkRows = old }()
			}
			models = append(models, fit(t, l.chunkRows > 0))
		})
	}
	if len(models) != 2 {
		return
	}
	a, b := models[0], models[1]
	if len(a.Groups) != len(b.Groups) || a.FittedRows != b.FittedRows {
		t.Fatalf("layouts disagree: %d/%d groups, %d/%d rows", len(a.Groups), len(b.Groups), a.FittedRows, b.FittedRows)
	}
	for key, ga := range a.Groups {
		gb := b.Groups[key]
		if gb == nil || ga.N != gb.N || len(ga.Params) != len(gb.Params) {
			t.Fatalf("group %d: %+v vs %+v", key, ga, gb)
		}
		for i := range ga.Params {
			if ga.Params[i] != gb.Params[i] {
				t.Fatalf("group %d param %d: tail-only %v, sealed %v", key, i, ga.Params[i], gb.Params[i])
			}
		}
	}
}

// requireLayout checks the fixture really has the shape the subtest claims:
// at least three sealed chunks plus a tail when the budget was lowered.
func requireLayout(t *testing.T, tb *table.Table, sealed bool) {
	t.Helper()
	v := tb.Chunks()
	if sealed && (v.NumSealed() < 3 || v.NumChunks() == v.NumSealed()) {
		t.Fatalf("fixture has %d sealed chunks of %d; want >= 3 plus a tail", v.NumSealed(), v.NumChunks())
	}
	if !sealed && v.NumSealed() != 0 {
		t.Fatalf("tail-only fixture has %d sealed chunks", v.NumSealed())
	}
}

func TestCaptureGroupedModel(t *testing.T) {
	inEachLayout(t, captureGroupedModel)
}

func captureGroupedModel(t *testing.T, sealed bool) *CapturedModel {
	tb, d := lofarFixture(t)
	requireLayout(t, tb, sealed)
	s := NewStore()
	m, err := s.Capture(tb, powerSpec("spectra"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Quality.GroupsOK != 30 || m.Quality.GroupsFailed != 0 {
		t.Fatalf("groups: %+v", m.Quality)
	}
	if m.Quality.MedianR2 < 0.8 {
		t.Fatalf("median R² = %g", m.Quality.MedianR2)
	}
	// Recovered parameters track the generator truth.
	for key, g := range m.Groups {
		truth := d.Truth[key]
		p, _ := paramByName(m, g, "p")
		alpha, _ := paramByName(m, g, "alpha")
		if math.Abs(p-truth.P) > 0.2*truth.P+0.02 {
			t.Fatalf("source %d: p=%g truth=%g", key, p, truth.P)
		}
		if math.Abs(alpha-truth.Alpha) > 0.25 {
			t.Fatalf("source %d: alpha=%g truth=%g", key, alpha, truth.Alpha)
		}
	}
	// Version and snapshot recorded.
	if m.Version != 1 || m.FittedRows != tb.NumRows() {
		t.Fatalf("version=%d rows=%d", m.Version, m.FittedRows)
	}
	return m
}

func paramByName(m *CapturedModel, g *GroupParams, name string) (float64, bool) {
	for i, p := range m.Model.Params {
		if p == name {
			return g.Params[i], true
		}
	}
	return 0, false
}

func TestCaptureDuplicateRejected(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	if _, err := s.Capture(tb, powerSpec("m1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Capture(tb, powerSpec("m1")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

func TestCaptureUngrouped(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	spec := Spec{
		Name:    "global",
		Table:   "measurements",
		Formula: "intensity ~ a + b*nu",
		Inputs:  []string{"nu"},
	}
	m, err := s.Capture(tb, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Grouped() {
		t.Fatal("ungrouped model reports grouped")
	}
	g, ok := m.GroupFor(12345) // any key maps to the single fit
	if !ok || len(g.Params) != 2 {
		t.Fatalf("GroupFor: %v %v", g, ok)
	}
}

func TestCaptureWithWhere(t *testing.T) {
	inEachLayout(t, captureWithWhere)
}

func captureWithWhere(t *testing.T, sealed bool) *CapturedModel {
	tb, _ := lofarFixture(t)
	requireLayout(t, tb, sealed)
	s := NewStore()
	spec := powerSpec("partial")
	w, err := expr.Parse("nu > 0.13")
	if err != nil {
		t.Fatal(err)
	}
	spec.Where = w
	m, err := s.Capture(tb, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Only 3 of 4 bands pass the filter, so every group has fewer points.
	for _, g := range m.Groups {
		if !g.OK() {
			continue
		}
		if g.N >= 40 {
			t.Fatalf("group %d used %d rows; filter not applied", g.Key, g.N)
		}
	}
	return m
}

// TestFitUnderAppendReadsOneView: a fit racing an appender fits exactly the
// rows it records. Group keys, inputs, output, row count and version all
// come from one view, so FittedRows equals the sum of the per-group counts
// whatever the writer does meanwhile.
func TestFitUnderAppendReadsOneView(t *testing.T) {
	old := table.DefaultChunkRows
	table.DefaultChunkRows = 256 // appends seal chunks while fits run
	defer func() { table.DefaultChunkRows = old }()
	tb, d := lofarFixture(t)
	s := NewStore()
	if _, err := s.Capture(tb, powerSpec("spectra")); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ { // bounded so every refit stays fast
			select {
			case <-stop:
				return
			default:
			}
			src := int64(1 + i%30)
			nu := synth.Bands[i%len(synth.Bands)]
			y := d.Truth[src].P * math.Pow(nu, d.Truth[src].Alpha)
			if err := tb.AppendRow([]expr.Value{expr.Int(src), expr.Float(nu), expr.Float(y)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		m, err := s.Refit("spectra", tb)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, g := range m.Groups {
			if !g.OK() {
				t.Fatalf("refit %d: group %d failed: %s", i, g.Key, g.FitErr)
			}
			sum += g.N
		}
		if sum != m.FittedRows {
			t.Fatalf("refit %d: groups cover %d rows, FittedRows = %d", i, sum, m.FittedRows)
		}
	}
	close(stop)
	<-done
}

func TestParamTable(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	m, err := s.Capture(tb, powerSpec("spectra"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := m.ParamTable()
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumRows() != 30 {
		t.Fatalf("param table rows = %d", pt.NumRows())
	}
	names := pt.Schema().Names()
	want := []string{"group_key", "alpha", "p", "residual_se", "r2", "n"}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("param table columns = %v", names)
		}
	}
	// The paper's Table 1 compression claim: parameters ≪ raw data.
	if m.ParamSizeBytes() >= tb.RawSizeBytes()/5 {
		t.Fatalf("params %d bytes vs raw %d: expected ≪", m.ParamSizeBytes(), tb.RawSizeBytes())
	}
}

func TestStalenessAndRefit(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	m, err := s.Capture(tb, powerSpec("spectra"))
	if err != nil {
		t.Fatal(err)
	}
	st := m.StalenessAgainst(tb)
	if st.AddedRows != 0 || st.GrowthFrac != 0 {
		t.Fatalf("fresh model reports staleness: %+v", st)
	}
	// Append ~30% more rows.
	add := tb.NumRows() * 3 / 10
	for i := 0; i < add; i++ {
		tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.15), expr.Float(2.0)})
	}
	st = m.StalenessAgainst(tb)
	if st.GrowthFrac < 0.25 {
		t.Fatalf("growth = %g", st.GrowthFrac)
	}
	// Refit bumps version and refreshes the snapshot.
	m2, err := s.Refit("spectra", tb)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 {
		t.Fatalf("version = %d", m2.Version)
	}
	if m2.StalenessAgainst(tb).AddedRows != 0 {
		t.Fatal("refit did not refresh snapshot")
	}
	got, _ := s.Get("spectra")
	if got != m2 {
		t.Fatal("store still returns the old model")
	}
}

func TestRefitUnknown(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	if _, err := s.Refit("nope", tb); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestDropAndList(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	s.Capture(tb, powerSpec("a"))
	s.Capture(tb, Spec{
		Name: "b", Table: "measurements",
		Formula: "intensity ~ c0 + c1*nu", Inputs: []string{"nu"},
	})
	if got := s.List(); len(got) != 2 || got[0].Spec.Name != "a" {
		t.Fatalf("List = %v", got)
	}
	if got := s.ForTable("measurements"); len(got) != 2 {
		t.Fatalf("ForTable = %d", len(got))
	}
	if !s.Drop("a") || s.Drop("a") {
		t.Fatal("Drop")
	}
	if got := s.ForTable("measurements"); len(got) != 1 || got[0].Spec.Name != "b" {
		t.Fatalf("ForTable after drop = %v", got)
	}
}

func TestBestForPrefersBetterModel(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	// The power law fits well; a constant-only model fits poorly.
	if _, err := s.Capture(tb, powerSpec("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Capture(tb, Spec{
		Name: "poor", Table: "measurements",
		Formula: "intensity ~ c0 + 0*nu + c1*nu", Inputs: []string{"nu"},
		GroupBy: "source",
	}); err != nil {
		t.Fatal(err)
	}
	best, err := s.BestFor("measurements", "intensity", tb, SelectionPolicy{MinMedianR2: 0})
	if err != nil {
		t.Fatal(err)
	}
	if best.Spec.Name != "good" {
		t.Fatalf("best = %q", best.Spec.Name)
	}
}

func TestBestForRejectsStale(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	if _, err := s.Capture(tb, powerSpec("spectra")); err != nil {
		t.Fatal(err)
	}
	add := tb.NumRows() / 2
	for i := 0; i < add; i++ {
		tb.AppendRow([]expr.Value{expr.Int(1), expr.Float(0.15), expr.Float(2.0)})
	}
	if _, err := s.BestFor("measurements", "intensity", tb, DefaultPolicy); !errors.Is(err, ErrNoModel) {
		t.Fatalf("want ErrNoModel for stale model, got %v", err)
	}
	// Refitting restores eligibility.
	if _, err := s.Refit("spectra", tb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BestFor("measurements", "intensity", tb, DefaultPolicy); err != nil {
		t.Fatalf("refit model not selected: %v", err)
	}
}

func TestBestForNoModel(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	if _, err := s.BestFor("measurements", "intensity", tb, DefaultPolicy); !errors.Is(err, ErrNoModel) {
		t.Fatalf("want ErrNoModel, got %v", err)
	}
}

func TestCaptureBadSpecs(t *testing.T) {
	tb, _ := lofarFixture(t)
	s := NewStore()
	cases := []Spec{
		{Name: "x", Table: "measurements", Formula: "no tilde", Inputs: []string{"nu"}},
		{Name: "x", Table: "measurements", Formula: "intensity ~ p*pow(nu,alpha)", Inputs: []string{"nu"}, GroupBy: "nosuch"},
		{Name: "x", Table: "measurements", Formula: "nosuch ~ p*pow(nu,alpha)", Inputs: []string{"nu"}},
	}
	for i, spec := range cases {
		if _, err := s.Capture(tb, spec); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestGroupedModelWithFailedGroups(t *testing.T) {
	// One group has too few observations; it must be recorded as failed,
	// not dropped silently.
	tb, _ := lofarFixture(t)
	tb.AppendRow([]expr.Value{expr.Int(999), expr.Float(0.12), expr.Float(1.0)})
	s := NewStore()
	m, err := s.Capture(tb, powerSpec("spectra"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Quality.GroupsFailed != 1 {
		t.Fatalf("failed groups = %d", m.Quality.GroupsFailed)
	}
	g, ok := m.Groups[999]
	if !ok || g.OK() {
		t.Fatal("failed group must be recorded with its error")
	}
	if _, usable := m.GroupFor(999); usable {
		t.Fatal("failed group must not be usable")
	}
}

// TestWhereFitReadsPredicateColumns: the WHERE pass of a fit decodes only
// the columns its predicate names, one frame per sealed chunk for "nu >
// 0.13" over (source, nu, intensity), and the fit it filters is the fit of
// the filtered rows: bit-identical parameters to a capture over a table
// holding just the rows the predicate keeps.
func TestWhereFitReadsPredicateColumns(t *testing.T) {
	old := table.DefaultChunkRows
	table.DefaultChunkRows = 48
	defer func() { table.DefaultChunkRows = old }()
	tb, d := lofarFixture(t)
	requireLayout(t, tb, true)
	w, err := expr.Parse("nu > 0.13")
	if err != nil {
		t.Fatal(err)
	}

	table.SetChunkCacheBudget(0)
	defer table.SetChunkCacheBudget(table.DefaultChunkCacheBytes)
	v := tb.Chunks()
	table.ResetCacheStats()
	keep, err := filterMask(v, w)
	if err != nil {
		t.Fatal(err)
	}
	if st := table.CacheStats(); st.FrameDecodes != uint64(v.NumSealed()) {
		t.Fatalf("WHERE pass decoded %d frames over %d sealed chunks, want one per chunk", st.FrameDecodes, v.NumSealed())
	}

	filtered := table.New("measurements", tb.Schema())
	for i, k := range keep {
		if k != (d.Nu[i] > 0.13) {
			t.Fatalf("row %d: mask %v for nu = %v", i, k, d.Nu[i])
		}
		if k {
			if err := filtered.AppendRow([]expr.Value{expr.Int(d.Source[i]), expr.Float(d.Nu[i]), expr.Float(d.Intensity[i])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := powerSpec("partial")
	spec.Where = w
	got, err := NewStore().Capture(tb, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewStore().Capture(filtered, powerSpec("partial"))
	if err != nil {
		t.Fatal(err)
	}
	for key, g := range want.Groups {
		h := got.Groups[key]
		if h == nil || h.N != g.N || len(h.Params) != len(g.Params) {
			t.Fatalf("group %d: %+v, want %+v", key, h, g)
		}
		for i := range g.Params {
			if math.Float64bits(h.Params[i]) != math.Float64bits(g.Params[i]) {
				t.Fatalf("group %d param %d: %v, want %v", key, i, h.Params[i], g.Params[i])
			}
		}
	}
}
