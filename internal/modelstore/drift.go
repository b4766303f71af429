package modelstore

import (
	"fmt"
	"math"
	"sync"

	"datalaws/internal/expr"
	"datalaws/internal/fit"
	"datalaws/internal/table"
)

// Drift detection: the live-data answer to validating a law once against a
// frozen sample. Every captured model stores the residual standard error the
// law achieved at fit time; as rows stream in, the detector standardizes
// each new observation's residual against that stored ResidualSE. While the
// law still holds, standardized residuals stay near unit scale; when the
// data-generating process moves, they blow up long before the table has
// grown enough for a row-count heuristic to notice. Growth alone is the
// second trigger: even drift-free appends shrink what a refit's parameter
// covariance would be, so enough new rows warrant a refit for tighter error
// bounds.

// DriftConfig tunes when accumulated evidence declares a model stale.
type DriftConfig struct {
	// MinRows is the number of attributable new rows required before the
	// residual test may fire (small samples are noisy). Default 32.
	MinRows int
	// MaxRMSZ fires the residual trigger when the root-mean-square
	// standardized residual of new rows exceeds it. Residuals of in-law data
	// have RMSZ ≈ 1; default 2.
	MaxRMSZ float64
	// MaxGrowthFrac fires the growth trigger when the table has grown by
	// more than this fraction since the fit. 0 takes the default (0.5); a
	// negative value disables the growth trigger entirely.
	MaxGrowthFrac float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.MinRows == 0 {
		c.MinRows = 32
	}
	if c.MaxRMSZ == 0 {
		c.MaxRMSZ = 2
	}
	if c.MaxGrowthFrac == 0 {
		c.MaxGrowthFrac = 0.5
	}
	return c
}

// DriftState accumulates residual evidence for one model since its last
// (re)fit.
type DriftState struct {
	// Observed counts rows attributed to the model (group fitted, values
	// numeric, inside the model's WHERE region).
	Observed int
	// SumSqZ is the sum of squared standardized residuals of observed rows.
	SumSqZ float64
	// Skipped counts rows the detector could not attribute (unknown or
	// unfitted group, NULL/non-numeric values, outside the fit region).
	Skipped int
	// ModelVersion is the model version the evidence was collected against.
	ModelVersion int
}

// RMSZ is the root-mean-square standardized residual of observed rows.
func (s DriftState) RMSZ() float64 {
	if s.Observed == 0 {
		return 0
	}
	return math.Sqrt(s.SumSqZ / float64(s.Observed))
}

// DriftReport is a staleness verdict with its evidence.
type DriftReport struct {
	Model   string
	State   DriftState
	Growth  Staleness
	Trigger string // "drift", "growth", or "" when fresh
}

// Stale reports whether either trigger fired.
func (r DriftReport) Stale() bool { return r.Trigger != "" }

func (r DriftReport) String() string {
	if !r.Stale() {
		return fmt.Sprintf("model %s fresh (rmsz=%.2f over %d rows, growth=%.0f%%)",
			r.Model, r.State.RMSZ(), r.State.Observed, 100*r.Growth.GrowthFrac)
	}
	return fmt.Sprintf("model %s stale via %s (rmsz=%.2f over %d rows, growth=%.0f%%)",
		r.Model, r.Trigger, r.State.RMSZ(), r.State.Observed, 100*r.Growth.GrowthFrac)
}

// DriftDetector tracks per-model residual evidence across appends. It is
// safe for concurrent use: ingestion feeds Observe from any number of
// writers while the background refitter polls Check.
type DriftDetector struct {
	cfg DriftConfig

	mu      sync.Mutex
	byModel map[string]*DriftState
}

// NewDriftDetector returns a detector with the given thresholds (zero fields
// take defaults).
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	return &DriftDetector{cfg: cfg.withDefaults(), byModel: map[string]*DriftState{}}
}

// Config returns the effective thresholds.
func (d *DriftDetector) Config() DriftConfig { return d.cfg }

// Observe feeds freshly appended rows (schema-aligned boxed values) through
// model m's law, accumulating standardized residuals. Evidence collected
// against an older model version is discarded first, so a refit implicitly
// resets the accumulator.
func (d *DriftDetector) Observe(m *CapturedModel, schema *table.Schema, rows [][]expr.Value) {
	if len(rows) == 0 {
		return
	}
	plan, ok := newRowPlan(m, schema)
	if !ok {
		return
	}
	var observed, skipped int
	var sumSqZ float64
	inputs := make([]float64, len(m.Model.Inputs))
	ev := m.Model.Evaluator()
	for _, row := range rows {
		z, ok := plan.standardizedResidual(m, ev, row, inputs)
		if !ok {
			skipped++
			continue
		}
		observed++
		sumSqZ += z * z
	}
	ev.Release()

	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.byModel[m.Spec.Name]
	if st == nil || st.ModelVersion != m.Version {
		st = &DriftState{ModelVersion: m.Version}
		d.byModel[m.Spec.Name] = st
	}
	st.Observed += observed
	st.Skipped += skipped
	st.SumSqZ += sumSqZ
}

// Check renders the staleness verdict for m against the current table state.
func (d *DriftDetector) Check(m *CapturedModel, t *table.Table) DriftReport {
	d.mu.Lock()
	var st DriftState
	if s := d.byModel[m.Spec.Name]; s != nil && s.ModelVersion == m.Version {
		st = *s
	}
	d.mu.Unlock()

	rep := DriftReport{Model: m.Spec.Name, State: st}
	if t != nil {
		rep.Growth = m.StalenessAgainst(t)
	}
	switch {
	case st.Observed >= d.cfg.MinRows && st.RMSZ() > d.cfg.MaxRMSZ:
		rep.Trigger = "drift"
	case d.cfg.MaxGrowthFrac > 0 && rep.Growth.GrowthFrac > d.cfg.MaxGrowthFrac:
		rep.Trigger = "growth"
	}
	return rep
}

// Reset discards accumulated evidence for a model (after a refit or drop).
func (d *DriftDetector) Reset(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.byModel, name)
}

// State returns a copy of the accumulated evidence for a model.
func (d *DriftDetector) State(name string) DriftState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.byModel[name]; s != nil {
		return *s
	}
	return DriftState{}
}

// rowPlan pre-resolves the schema positions a model needs from an appended
// row, so Observe is index math per row instead of name lookups. The WHERE
// environment is allocated once and holds only the columns the predicate
// references — Observe runs synchronously on the ingest path.
type rowPlan struct {
	outIdx   int
	inIdx    []int
	groupIdx int // -1 for ungrouped models
	where    expr.Expr
	// whereCols maps env names to schema positions for WHERE evaluation.
	whereCols []struct {
		name string
		idx  int
	}
	env expr.MapEnv // reused per row; keys are exactly whereCols
}

func newRowPlan(m *CapturedModel, schema *table.Schema) (*rowPlan, bool) {
	p := &rowPlan{outIdx: schema.Index(m.Model.Output), groupIdx: -1, where: m.Spec.Where}
	if p.outIdx < 0 {
		return nil, false
	}
	for _, in := range m.Model.Inputs {
		i := schema.Index(in)
		if i < 0 {
			return nil, false
		}
		p.inIdx = append(p.inIdx, i)
	}
	if m.Grouped() {
		if p.groupIdx = schema.Index(m.Spec.GroupBy); p.groupIdx < 0 {
			return nil, false
		}
	}
	if p.where != nil {
		for _, name := range expr.Vars(p.where) {
			i := schema.Index(name)
			if i < 0 {
				return nil, false
			}
			p.whereCols = append(p.whereCols, struct {
				name string
				idx  int
			}{name, i})
		}
		p.env = expr.MapEnv{}
	}
	return p, true
}

// standardizedResidual computes (y − f(β̂, x)) / ResidualSE for one appended
// row, reporting ok=false for rows that cannot be attributed to the model.
// ev is the caller's per-batch evaluator of m's law and inputs its buffer
// for the row's input values.
func (p *rowPlan) standardizedResidual(m *CapturedModel, ev *fit.Evaluator, row []expr.Value, inputs []float64) (float64, bool) {
	if p.where != nil {
		for _, wc := range p.whereCols {
			if wc.idx >= len(row) {
				return 0, false
			}
			p.env[wc.name] = row[wc.idx]
		}
		v, err := expr.Eval(p.where, p.env)
		if err != nil || v.IsNull() {
			return 0, false
		}
		if in, err := v.AsBool(); err != nil || !in {
			return 0, false
		}
	}
	var key int64
	if p.groupIdx >= 0 {
		if p.groupIdx >= len(row) || row[p.groupIdx].K != expr.KindInt {
			return 0, false
		}
		key = row[p.groupIdx].I
	}
	g, ok := m.GroupFor(key)
	if !ok || g.DF <= 0 {
		return 0, false
	}
	for i, idx := range p.inIdx {
		if idx >= len(row) {
			return 0, false
		}
		f, err := row[idx].AsFloat()
		if err != nil {
			return 0, false
		}
		inputs[i] = f
	}
	if p.outIdx >= len(row) {
		return 0, false
	}
	y, err := row[p.outIdx].AsFloat()
	if err != nil {
		return 0, false
	}
	yhat := ev.Eval(g.Params, inputs)
	se := g.ResidualSE
	if se <= 0 || math.IsNaN(se) {
		// A perfect historical fit has no noise scale; any deviation is
		// infinite evidence. Clamp to a tiny scale instead.
		se = 1e-12
	}
	z := (y - yhat) / se
	if math.IsNaN(z) || math.IsInf(z, 0) {
		return 0, false
	}
	return z, true
}
