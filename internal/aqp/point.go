package aqp

import (
	"fmt"
	"strings"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
)

// bindPointLookup recognizes the point-query shape on an already-bound
// statement and, when it matches, computes the (at most one) result row
// immediately: group parameters come from one hash lookup, the prediction
// from one model evaluation. Returns ok=false for anything that needs the
// general scan pipeline; the caller then plans normally, so this is purely
// a fast path, never a semantic fork. The emitted row, column names and
// empty-result conditions (unfitted group, value outside the enumerated
// domain, illegal combination) replicate exactly what the generic
// ModelScan + Filter + Project pipeline would produce.
func (p *Prepared) bindPointLookup(st *sql.SelectStmt, model *modelstore.CapturedModel, domains []Domain, legal *ExactLegalSet, inflate float64) (exec.Operator, bool) {
	if model.Spec.Where != nil { // hybrid plans route through the raw side
		return nil, false
	}
	if len(st.GroupBy) > 0 || st.Having != nil || len(st.OrderBy) > 0 || st.Limit >= 0 {
		return nil, false
	}
	// Every input — and the group column, when grouped — must be pinned,
	// and nothing else may appear in the WHERE clause.
	eqs := map[string]expr.Value{}
	if !equalities(st.Where, st.From, eqs) {
		return nil, false
	}
	want := len(model.Model.Inputs)
	if model.Grouped() {
		want++
	}
	if len(eqs) != want {
		return nil, false
	}
	var key int64
	if model.Grouped() {
		v, ok := eqs[model.Spec.GroupBy]
		if !ok {
			return nil, false
		}
		if key, ok = asGroupKey(v); !ok {
			return nil, false
		}
	}
	inputs := make([]float64, len(model.Model.Inputs))
	for i, in := range model.Model.Inputs {
		v, ok := eqs[in]
		if !ok {
			return nil, false
		}
		f, err := v.AsFloat()
		if err != nil {
			return nil, false
		}
		inputs[i] = f
	}
	// The select list must be plain references to the scan's columns.
	cols, vals, ok := p.pointProjection(st, model, key, inputs)
	if !ok {
		return nil, false
	}

	op := &pointOp{cols: cols, model: model.Spec.Name}
	// Empty-result conditions, mirroring the generic grid enumeration.
	if _, fitted := model.GroupFor(key); !fitted {
		return op, true
	}
	for i, d := range domains {
		if !domainContains(d, inputs[i]) {
			return op, true
		}
	}
	if legal != nil && !legal.Contains(key, inputs) {
		return op, true
	}
	var yhat, lo, hi float64
	if st.WithError {
		level := p.opts.Level
		if level <= 0 || level >= 1 {
			level = 0.95
		}
		var err error
		yhat, lo, hi, err = PointLookup(model, key, inputs, level, inflate)
		if err != nil {
			return op, true
		}
	} else {
		// Without WITH ERROR the interval columns are unreferenced; skip
		// the gradient and t-quantile work.
		g, _ := model.GroupFor(key)
		yhat = model.Model.Eval(g.Params, inputs)
	}
	row := make(exec.Row, len(vals))
	for i, src := range vals {
		switch src.kind {
		case pointColGroup:
			row[i] = expr.Int(key)
		case pointColInput:
			row[i] = expr.Float(inputs[src.input])
		case pointColOutput:
			row[i] = expr.Float(yhat)
		case pointColLo:
			row[i] = expr.Float(lo)
		case pointColHi:
			row[i] = expr.Float(hi)
		}
	}
	op.row = row
	return op, true
}

type pointColKind uint8

const (
	pointColGroup pointColKind = iota
	pointColInput
	pointColOutput
	pointColLo
	pointColHi
)

type pointColRef struct {
	kind  pointColKind
	input int // index for pointColInput
}

// pointProjection maps the select list onto point-lookup columns, with the
// same output naming as the generic planner (alias, else the identifier's
// unqualified suffix). Any non-identifier item, star, or reference to a
// column the model cannot produce rejects the fast path.
func (p *Prepared) pointProjection(st *sql.SelectStmt, model *modelstore.CapturedModel, key int64, inputs []float64) ([]string, []pointColRef, bool) {
	cols := make([]string, len(st.Items))
	vals := make([]pointColRef, len(st.Items))
	for i, it := range st.Items {
		if it.Star {
			return nil, nil, false
		}
		id, ok := it.Expr.(*expr.Ident)
		if !ok {
			return nil, nil, false
		}
		name := unqualify(id.Name, st.From)
		if name == "" {
			return nil, nil, false
		}
		ref, ok := pointColFor(model, name, st.WithError)
		if !ok {
			return nil, nil, false
		}
		vals[i] = ref
		if it.Alias != "" {
			cols[i] = it.Alias
		} else {
			cols[i] = name
		}
	}
	return cols, vals, true
}

func pointColFor(model *modelstore.CapturedModel, name string, withError bool) (pointColRef, bool) {
	if model.Grouped() && name == model.Spec.GroupBy {
		return pointColRef{kind: pointColGroup}, true
	}
	for i, in := range model.Model.Inputs {
		if name == in {
			return pointColRef{kind: pointColInput, input: i}, true
		}
	}
	out := model.Model.Output
	switch name {
	case out:
		return pointColRef{kind: pointColOutput}, true
	case out + "_lo":
		if withError {
			return pointColRef{kind: pointColLo}, true
		}
	case out + "_hi":
		if withError {
			return pointColRef{kind: pointColHi}, true
		}
	}
	return pointColRef{}, false
}

// unqualify strips a matching table qualifier, returning "" when the name
// is qualified with a different table.
func unqualify(name, tableName string) string {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return name
	}
	if name[:i] != tableName {
		return ""
	}
	return name[i+1:]
}

// pointOp is a one-row (or empty) operator produced by the point-lookup
// fast path.
type pointOp struct {
	cols  []string
	row   exec.Row // nil → empty result
	model string
	done  bool
}

// Columns implements exec.Operator.
func (o *pointOp) Columns() []string { return o.cols }

// Open implements exec.Operator.
func (o *pointOp) Open() error { o.done = false; return nil }

// Next implements exec.Operator.
func (o *pointOp) Next() (exec.Row, error) {
	if o.done || o.row == nil {
		return nil, nil
	}
	o.done = true
	return o.row, nil
}

// Close implements exec.Operator.
func (o *pointOp) Close() error { return nil }

// ExplainInfo implements the executor's Explainer.
func (o *pointOp) ExplainInfo() string {
	return fmt.Sprintf("PointLookup model=%s (parameter-table hash probe, zero IO)", o.model)
}
