// Package capture implements the paper's Figure 2 interception workflow: a
// "strawman" object in a client statistical session wraps a database table
// and is indistinguishable from a local dataset; when the user fits a model
// against it, the fitting is offloaded to the database (steps 1–2), which
// fits, judges, and stores the model, returning only the goodness of fit
// (step 3); later point queries are answered from the captured model with
// error bounds (steps 4–5). This package is the client-side concept only:
// the Engine is the in-process Backend, and server.Client is the remote one,
// speaking the same session protocol as every other client, the way R
// clients talk to an analytical database in the authors' earlier
// "strawman" work.
package capture

import (
	"fmt"
	"strings"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
)

// FitSummary is what the database reveals to the statistical session after
// a fit: quality judgments, never the raw data (Figure 2 step 3).
type FitSummary struct {
	Name            string
	Formula         string
	Params          []string
	Groups          int
	GroupsFailed    int
	MedianR2        float64
	MeanR2          float64
	WorstR2         float64
	MedianResidSE   float64
	ParamTableBytes int
	ModelVersion    int
}

// PointAnswer is an approximate point-query result with error bounds
// (Figure 2 step 5).
type PointAnswer struct {
	Value float64
	Lo    float64
	Hi    float64
	// FromModel distinguishes model-derived answers from exact fallbacks.
	FromModel bool
	// ModelName is the model that answered: the requested one, or for a
	// partitioned family the member covering the point.
	ModelName    string
	ModelVersion int
}

// Backend is the database-side surface the strawman forwards to.
type Backend interface {
	// TableInfo exposes the schema (column names) and row count of a table.
	TableInfo(name string) (cols []string, rows int, err error)
	// FitModel fits spec server-side, stores the captured model, and
	// returns its quality summary.
	FitModel(spec modelstore.Spec) (FitSummary, error)
	// ApproxPoint evaluates the named captured model at (group, inputs)
	// with a level-confidence prediction interval.
	ApproxPoint(model string, group int64, inputs []float64, level float64) (PointAnswer, error)
}

// SummaryFromModel builds the client-visible summary of a captured model.
func SummaryFromModel(m *modelstore.CapturedModel) FitSummary {
	return FitSummary{
		Name:            m.Spec.Name,
		Formula:         m.Spec.Formula,
		Params:          append([]string(nil), m.Model.Params...),
		Groups:          m.Quality.GroupsOK,
		GroupsFailed:    m.Quality.GroupsFailed,
		MedianR2:        m.Quality.MedianR2,
		MeanR2:          m.Quality.MeanR2,
		WorstR2:         m.Quality.WorstR2,
		MedianResidSE:   m.Quality.MedianResidualSE,
		ParamTableBytes: m.ParamSizeBytes(),
		ModelVersion:    m.Version,
	}
}

// SummaryColumns names the columns of the one-row result a FIT MODEL
// statement returns; SummaryRow writes that row and SummaryFromRow reads it,
// so the engine and a remote client agree on one layout.
func SummaryColumns() []string {
	return []string{"name", "formula", "params", "groups", "groups_failed", "median_r2",
		"mean_r2", "worst_r2", "median_residual_se", "param_bytes", "version"}
}

// SummaryRow encodes s in SummaryColumns order; parameter names are joined
// with commas (they are identifiers, so they cannot contain one).
func SummaryRow(s FitSummary) []expr.Value {
	return []expr.Value{
		expr.Str(s.Name), expr.Str(s.Formula), expr.Str(strings.Join(s.Params, ",")),
		expr.Int(int64(s.Groups)), expr.Int(int64(s.GroupsFailed)),
		expr.Float(s.MedianR2), expr.Float(s.MeanR2), expr.Float(s.WorstR2),
		expr.Float(s.MedianResidSE), expr.Int(int64(s.ParamTableBytes)), expr.Int(int64(s.ModelVersion)),
	}
}

// SummaryFromRow decodes a SummaryRow.
func SummaryFromRow(row []expr.Value) (FitSummary, error) {
	if n := len(SummaryColumns()); len(row) != n {
		return FitSummary{}, fmt.Errorf("capture: fit summary row has %d columns, want %d", len(row), n)
	}
	var params []string
	if row[2].S != "" {
		params = strings.Split(row[2].S, ",")
	}
	return FitSummary{
		Name: row[0].S, Formula: row[1].S, Params: params,
		Groups: int(row[3].I), GroupsFailed: int(row[4].I),
		MedianR2: row[5].F, MeanR2: row[6].F, WorstR2: row[7].F,
		MedianResidSE: row[8].F, ParamTableBytes: int(row[9].I), ModelVersion: int(row[10].I),
	}, nil
}

// Strawman is the client-side stand-in for a remote table (Figure 2 step 1).
// To the statistical environment it behaves like a local dataset — it has
// columns and a row count — but every heavy operation ships to the backend.
type Strawman struct {
	Table   string
	backend Backend
	cols    []string
	rows    int
}

// NewStrawman wraps a remote table, fetching its shape.
func NewStrawman(b Backend, tableName string) (*Strawman, error) {
	cols, rows, err := b.TableInfo(tableName)
	if err != nil {
		return nil, fmt.Errorf("capture: wrapping table %q: %w", tableName, err)
	}
	return &Strawman{Table: tableName, backend: b, cols: cols, rows: rows}, nil
}

// Columns returns the remote table's column names (as of the last Refresh).
func (s *Strawman) Columns() []string { return append([]string(nil), s.cols...) }

// NumRows returns the remote table's row count as of the last Refresh (the
// wrap time, if Refresh was never called). The remote table keeps growing
// underneath the strawman; call Refresh for a current count.
func (s *Strawman) NumRows() int { return s.rows }

// Refresh re-fetches the remote table's shape. Fit calls it implicitly so a
// fit after new observations arrived is judged against the table the
// database actually fitted, not the shape cached at wrap time.
func (s *Strawman) Refresh() error {
	cols, rows, err := s.backend.TableInfo(s.Table)
	if err != nil {
		return fmt.Errorf("capture: refreshing table %q: %w", s.Table, err)
	}
	s.cols, s.rows = cols, rows
	return nil
}

// FitOptions mirror the optional clauses of FIT MODEL for the client API.
type FitOptions struct {
	GroupBy string
	Start   map[string]float64
	Method  string // "", "lm", "gn"
	// Where restricts the fit to a subset; parsed with the expression
	// grammar (e.g. "nu > 0.1").
	Where string
}

// Fit offloads a model fit to the database (Figure 2 step 2) and returns
// the goodness of fit (step 3). The model is named, captured, and stored
// server-side as a transparent side effect — the interception the paper
// proposes.
func (s *Strawman) Fit(name, formula string, inputs []string, opts *FitOptions) (FitSummary, error) {
	if err := s.Refresh(); err != nil {
		return FitSummary{}, err
	}
	spec := modelstore.Spec{
		Name:    name,
		Table:   s.Table,
		Formula: formula,
		Inputs:  inputs,
	}
	if opts != nil {
		spec.GroupBy = opts.GroupBy
		spec.Start = opts.Start
		spec.Method = opts.Method
		if opts.Where != "" {
			w, err := expr.Parse(opts.Where)
			if err != nil {
				return FitSummary{}, fmt.Errorf("capture: parsing where %q: %w", opts.Where, err)
			}
			spec.Where = w
		}
	}
	return s.backend.FitModel(spec)
}

// Point asks the database for an approximate point answer from a captured
// model (Figure 2 steps 4–5).
func (s *Strawman) Point(model string, group int64, inputs []float64, level float64) (PointAnswer, error) {
	return s.backend.ApproxPoint(model, group, inputs, level)
}
