package capture

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"datalaws/internal/modelstore"
)

// fakeBackend is an in-memory Backend double recording calls.
type fakeBackend struct {
	mu     sync.Mutex
	fits   []modelstore.Spec
	points int
}

func (f *fakeBackend) TableInfo(name string) ([]string, int, error) {
	if name != "measurements" {
		return nil, 0, fmt.Errorf("unknown table %q", name)
	}
	return []string{"source", "nu", "intensity"}, 1452824, nil
}

func (f *fakeBackend) FitModel(spec modelstore.Spec) (FitSummary, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if spec.Formula == "" {
		return FitSummary{}, fmt.Errorf("empty formula")
	}
	f.fits = append(f.fits, spec)
	return FitSummary{
		Name: spec.Name, Formula: spec.Formula,
		Params: []string{"alpha", "p"}, Groups: 35692,
		MedianR2: 0.92, MeanR2: 0.9, WorstR2: 0.4,
		MedianResidSE: 0.0066, ParamTableBytes: 640 * 1024, ModelVersion: 1,
	}, nil
}

func (f *fakeBackend) ApproxPoint(model string, group int64, inputs []float64, level float64) (PointAnswer, error) {
	f.mu.Lock()
	f.points++
	f.mu.Unlock()
	if model != "spectra" {
		return PointAnswer{}, fmt.Errorf("model %q not found", model)
	}
	return PointAnswer{Value: 3.0, Lo: 2.95, Hi: 3.05, FromModel: true, ModelName: model}, nil
}

func TestStrawmanLooksLikeLocalData(t *testing.T) {
	b := &fakeBackend{}
	s, err := NewStrawman(b, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 1452824 {
		t.Fatalf("rows = %d", s.NumRows())
	}
	cols := s.Columns()
	if len(cols) != 3 || cols[2] != "intensity" {
		t.Fatalf("cols = %v", cols)
	}
	// Mutating the returned slice must not corrupt the strawman.
	cols[0] = "hacked"
	if s.Columns()[0] != "source" {
		t.Fatal("Columns aliases internal state")
	}
}

func TestStrawmanUnknownTable(t *testing.T) {
	if _, err := NewStrawman(&fakeBackend{}, "nope"); err == nil {
		t.Fatal("want error for unknown table")
	}
}

func TestStrawmanFitOffloads(t *testing.T) {
	b := &fakeBackend{}
	s, _ := NewStrawman(b, "measurements")
	sum, err := s.Fit("spectra", "intensity ~ p * pow(nu, alpha)", []string{"nu"}, &FitOptions{
		GroupBy: "source",
		Start:   map[string]float64{"p": 1, "alpha": -1},
		Where:   "nu > 0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.MedianR2 != 0.92 || sum.Groups != 35692 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(b.fits) != 1 {
		t.Fatal("fit not forwarded")
	}
	spec := b.fits[0]
	if spec.Table != "measurements" || spec.GroupBy != "source" {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Where == nil || !strings.Contains(spec.Where.String(), ">") {
		t.Fatalf("where = %v", spec.Where)
	}
}

func TestStrawmanFitBadWhere(t *testing.T) {
	s, _ := NewStrawman(&fakeBackend{}, "measurements")
	if _, err := s.Fit("m", "y ~ a*x", []string{"x"}, &FitOptions{Where: "((("}); err == nil {
		t.Fatal("want parse error")
	}
}

func TestStrawmanPoint(t *testing.T) {
	b := &fakeBackend{}
	s, _ := NewStrawman(b, "measurements")
	ans, err := s.Point("spectra", 42, []float64{0.14}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 3.0 || !ans.FromModel {
		t.Fatalf("answer = %+v", ans)
	}
	if b.points != 1 {
		t.Fatal("point not forwarded")
	}
}

// growingBackend reports a row count that grows between calls, like a live
// table receiving appends.
type growingBackend struct {
	fakeBackend
	rows int
}

func (g *growingBackend) TableInfo(name string) ([]string, int, error) {
	cols, _, err := g.fakeBackend.TableInfo(name)
	if err != nil {
		return nil, 0, err
	}
	g.rows += 100
	return cols, g.rows, nil
}

// TestStrawmanRefresh is the satellite bugfix: the strawman caches the
// table shape at wrap time, so NumRows lies after appends; Refresh (called
// implicitly by Fit) re-fetches it.
func TestStrawmanRefresh(t *testing.T) {
	b := &growingBackend{}
	s, err := NewStrawman(b, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 100 {
		t.Fatalf("rows at wrap = %d", s.NumRows())
	}
	// The remote table grew; the cached shape is stale until Refresh.
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 200 {
		t.Fatalf("rows after refresh = %d", s.NumRows())
	}
	// Fit refreshes implicitly.
	if _, err := s.Fit("m", "intensity ~ p * pow(nu, alpha)", []string{"nu"}, nil); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 300 {
		t.Fatalf("rows after fit = %d", s.NumRows())
	}
}

// TestSummaryRowRoundTrip: the FIT MODEL result row decodes to the summary
// it was written from, and a row of the wrong width is an error.
func TestSummaryRowRoundTrip(t *testing.T) {
	for _, want := range []FitSummary{
		{Name: "spectra", Formula: "intensity ~ p * pow(nu, alpha)", Params: []string{"alpha", "p"},
			Groups: 35692, GroupsFailed: 3, MedianR2: 0.92, MeanR2: 0.9, WorstR2: 0.4,
			MedianResidSE: 0.0066, ParamTableBytes: 640 * 1024, ModelVersion: 2},
		{Name: "empty"},
	} {
		got, err := SummaryFromRow(SummaryRow(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %+v = %+v, %v", want, got, err)
		}
	}
	if _, err := SummaryFromRow(SummaryRow(FitSummary{})[:10]); err == nil {
		t.Fatal("a 10-column row decoded")
	}
}
