package aqp

import (
	"fmt"
	"math"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/stats"
)

// ModelScan is the paper's zero-IO scan (§4.1): an exec.Operator that
// regenerates tuples from a captured model and its parameter table instead
// of reading stored measurements. Output columns mirror the base table
// (group column, input columns, predicted output), so the relational
// pipeline above is unchanged; with WithError, <output>_lo and <output>_hi
// prediction-interval bounds are appended.
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
	// Interruptible binds the statement context so grid enumeration stops
	// promptly on cancellation, even when the legal set rejects long runs of
	// combinations without emitting a row.
	exec.Interruptible

	cols     []string
	groupIdx int
	comboIdx []int
	done     bool
	scratch  []float64
	grad     []float64
	rowsOut  int
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

// Columns implements exec.Operator.
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

// Open implements exec.Operator.
func (s *ModelScan) Open() error {
	if s.Level == 0 {
		s.Level = 0.95
	}
	s.groupIdx = 0
	s.comboIdx = make([]int, len(s.Domains))
	s.done = len(s.orderKeys()) == 0
	np := len(s.Model.Model.Params)
	s.scratch = make([]float64, np+len(s.Model.Model.Inputs))
	s.grad = make([]float64, np)
	s.rowsOut = 0
	s.ResetInterrupt()
	// Skip leading failed groups.
	s.skipBadGroups()
	return nil
}

func (s *ModelScan) skipBadGroups() {
	order := s.orderKeys()
	for s.groupIdx < len(order) {
		key := order[s.groupIdx]
		if g, ok := s.Model.Groups[key]; ok && g.OK() {
			return
		}
		s.groupIdx++
	}
	s.done = true
}

// Next implements exec.Operator.
func (s *ModelScan) Next() (exec.Row, error) {
	model := s.Model.Model
	order := s.orderKeys()
	for {
		if err := s.CheckInterrupt(); err != nil {
			return nil, err
		}
		if s.done || s.groupIdx >= len(order) {
			return nil, nil
		}
		key := order[s.groupIdx]
		g := s.Model.Groups[key]

		inputs := make([]float64, len(s.Domains))
		for i, d := range s.Domains {
			inputs[i] = d.Vals[s.comboIdx[i]]
		}
		s.advance()

		if s.Legal != nil && !s.Legal.Contains(key, inputs) {
			continue
		}

		yhat := model.EvalInto(s.scratch, g.Params, inputs)
		row := make(exec.Row, 0, len(s.Columns()))
		if s.Model.Grouped() {
			row = append(row, expr.Int(key))
		}
		for _, v := range inputs {
			row = append(row, expr.Float(v))
		}
		row = append(row, expr.Float(yhat))
		if s.WithError {
			lo, hi := s.predictionInterval(g, inputs, yhat, s.grad)
			row = append(row, expr.Float(lo), expr.Float(hi))
		}
		s.rowsOut++
		return row, nil
	}
}

// advance moves the (group, combo) cursor one step in odometer order.
func (s *ModelScan) advance() {
	for i := len(s.comboIdx) - 1; i >= 0; i-- {
		s.comboIdx[i]++
		if s.comboIdx[i] < len(s.Domains[i].Vals) {
			return
		}
		s.comboIdx[i] = 0
	}
	// Odometer wrapped: next group.
	s.groupIdx++
	s.skipBadGroups()
}

// predictionInterval computes the delta-method prediction interval from the
// stored per-group covariance — the "error bounds" annotation of Figure 2
// step 5. grad is caller-owned scratch (one per concurrent scan).
func (s *ModelScan) predictionInterval(g *modelstore.GroupParams, inputs []float64, yhat float64, grad []float64) (lo, hi float64) {
	if g.Cov == nil || g.DF <= 0 {
		return math.Inf(-1), math.Inf(1)
	}
	m := s.Model.Model
	m.Grad(g.Params, inputs, grad)
	var v float64
	for i := range grad {
		for j := range grad {
			v += grad[i] * g.Cov[i][j] * grad[j]
		}
	}
	if v < 0 {
		v = 0
	}
	se := math.Sqrt(v + g.ResidualSE*g.ResidualSE)
	if s.SEInflation > 1 {
		se *= s.SEInflation
	}
	tcrit := stats.StudentT{Nu: float64(g.DF)}.Quantile(0.5 + s.Level/2)
	return yhat - tcrit*se, yhat + tcrit*se
}

// Close implements exec.Operator.
func (s *ModelScan) Close() error { return nil }

// RowsEmitted reports how many rows the last run produced.
func (s *ModelScan) RowsEmitted() int { return s.rowsOut }

// PointLookup answers the paper's first example query — a point query on
// (group, inputs) — directly from the parameter table: one hash lookup and
// one model evaluation, no scan at all.
func PointLookup(m *modelstore.CapturedModel, group int64, inputs []float64, level float64) (value, lo, hi float64, err error) {
	return PointLookupScaled(m, group, inputs, level, 1)
}

// PointLookupScaled is PointLookup with a staleness widening factor applied
// to the prediction SE (factors ≤ 1 leave the bounds untouched).
func PointLookupScaled(m *modelstore.CapturedModel, group int64, inputs []float64, level, inflate float64) (value, lo, hi float64, err error) {
	g, ok := m.GroupFor(group)
	if !ok {
		return 0, 0, 0, fmt.Errorf("aqp: no fitted parameters for group %d", group)
	}
	if len(inputs) != len(m.Model.Inputs) {
		return 0, 0, 0, fmt.Errorf("aqp: %d inputs, model has %d", len(inputs), len(m.Model.Inputs))
	}
	yhat := m.Model.Eval(g.Params, inputs)
	if g.Cov == nil || g.DF <= 0 {
		return yhat, math.Inf(-1), math.Inf(1), nil
	}
	grad := make([]float64, len(g.Params))
	m.Model.Grad(g.Params, inputs, grad)
	var v float64
	for i := range grad {
		for j := range grad {
			v += grad[i] * g.Cov[i][j] * grad[j]
		}
	}
	if v < 0 {
		v = 0
	}
	se := math.Sqrt(v + g.ResidualSE*g.ResidualSE)
	if inflate > 1 {
		se *= inflate
	}
	tcrit := stats.StudentT{Nu: float64(g.DF)}.Quantile(0.5 + level/2)
	return yhat, yhat - tcrit*se, yhat + tcrit*se, nil
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
