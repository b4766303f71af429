package aqp

import (
	"fmt"

	"datalaws/internal/modelstore"
)

// ModelScan is the paper's zero-IO scan (§4.1): a plan node that
// regenerates tuples from a captured model and its parameter table instead
// of reading stored measurements. Output columns mirror the base table
// (group column, input columns, predicted output), so the relational
// pipeline above is unchanged; with WithError, <output>_lo and <output>_hi
// prediction-interval bounds are appended. It is an exec.Node that the plan
// lowering splits into vector scans (SplitMorsels).
type ModelScan struct {
	Model *modelstore.CapturedModel
	// Domains enumerates each input column's legal values, in model input
	// order.
	Domains []Domain
	// Legal restricts emitted combinations; nil admits everything.
	Legal *ExactLegalSet
	// Groups optionally restricts the scan to these group keys (nil scans
	// every fitted group). The approximate planner pushes equality
	// predicates on the group column down to this list, so a point query
	// touches one parameter-table entry instead of enumerating the grid.
	Groups []int64
	// WithError appends prediction-interval columns at Level (default 0.95).
	WithError bool
	Level     float64
	// SEInflation scales the prediction SE (staleness widening; values ≤ 1
	// are treated as 1).
	SEInflation float64
	// TableName qualifies output column names; defaults to the model's
	// table.
	TableName string

	cols []string
}

// NewModelScan validates and constructs a scan.
func NewModelScan(m *modelstore.CapturedModel, domains []Domain, legal *ExactLegalSet) (*ModelScan, error) {
	if len(domains) != len(m.Model.Inputs) {
		return nil, fmt.Errorf("aqp: %d domains for %d model inputs", len(domains), len(m.Model.Inputs))
	}
	for i, d := range domains {
		if d.Col != m.Model.Inputs[i] {
			return nil, fmt.Errorf("aqp: domain %d is %q, model input is %q", i, d.Col, m.Model.Inputs[i])
		}
		if len(d.Vals) == 0 {
			return nil, fmt.Errorf("aqp: empty domain for %q", d.Col)
		}
	}
	return &ModelScan{Model: m, Domains: domains, Legal: legal}, nil
}

// Columns implements exec.Node.
func (s *ModelScan) Columns() []string {
	if s.cols != nil {
		return s.cols
	}
	tbl := s.TableName
	if tbl == "" {
		tbl = s.Model.Spec.Table
	}
	var cols []string
	if s.Model.Grouped() {
		cols = append(cols, tbl+"."+s.Model.Spec.GroupBy)
	}
	for _, in := range s.Model.Model.Inputs {
		cols = append(cols, tbl+"."+in)
	}
	cols = append(cols, tbl+"."+s.Model.Model.Output)
	if s.WithError {
		cols = append(cols, tbl+"."+s.Model.Model.Output+"_lo", tbl+"."+s.Model.Model.Output+"_hi")
	}
	s.cols = cols
	return cols
}

// orderKeys returns the group keys the scan enumerates, honoring the
// planner's group restriction.
func (s *ModelScan) orderKeys() []int64 {
	if s.Groups != nil {
		return s.Groups
	}
	return s.Model.Order
}

// PointLookup answers the paper's first example query — a point query on
// (group, inputs) — directly from the parameter table: one hash lookup and
// one model evaluation, no scan at all. inflate is the staleness widening
// of the prediction SE (Inflation; factors ≤ 1 leave the bounds untouched).
func PointLookup(m *modelstore.CapturedModel, group int64, inputs []float64, level, inflate float64) (value, lo, hi float64, err error) {
	g, ok := m.GroupFor(group)
	if !ok {
		return 0, 0, 0, fmt.Errorf("aqp: no fitted parameters for group %d", group)
	}
	if len(inputs) != len(m.Model.Inputs) {
		return 0, 0, 0, fmt.Errorf("aqp: %d inputs, model has %d", len(inputs), len(m.Model.Inputs))
	}
	ev := m.Model.Evaluator()
	value = ev.Eval(g.Params, inputs)
	lo, hi = ev.Interval(&g.Estimate, inputs, value, level, inflate)
	ev.Release()
	return value, lo, hi, nil
}

// ExplainInfo implements the executor's Explainer so EXPLAIN renders the
// zero-IO scan with its provenance.
func (s *ModelScan) ExplainInfo() string {
	legal := "all combinations"
	if s.Legal != nil {
		legal = "exact legal set"
	}
	groups := s.Model.Quality.GroupsOK
	note := ""
	if s.Groups != nil {
		groups = len(s.Groups)
		note = ", point pushdown"
	}
	return fmt.Sprintf("ModelScan model=%s grid=%d×%d (%s%s, zero IO)",
		s.Model.Spec.Name, groups, GridSize(s.Domains), legal, note)
}
