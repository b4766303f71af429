// Package explore implements the paper's "model exploration" opportunity
// (§4.2): "we can find interesting subsets of the data by analyzing the
// first derivative of the model function for regions in the parameter space
// with high gradients". The symbolic derivatives come from internal/expr;
// the grid comes from the enumerable input domains.
package explore

import (
	"fmt"
	"math"
	"sort"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
)

// GradientPoint is one grid point annotated with the model's gradient
// magnitude with respect to its inputs.
type GradientPoint struct {
	Group  int64
	Inputs []float64
	Value  float64
	// GradNorm is ‖∂f/∂inputs‖₂ at this point.
	GradNorm float64
}

// HighGradientRegions evaluates the input-gradient magnitude of the model
// over the cross product of the supplied input domains for every fitted
// group, returning the topK points with the steepest response — the
// "interesting" regions a user should explore first.
func HighGradientRegions(m *modelstore.CapturedModel, domains map[string][]float64, topK int) ([]GradientPoint, error) {
	model := m.Model
	// Symbolic input derivatives.
	derivs := make([]expr.Expr, len(model.Inputs))
	for i, in := range model.Inputs {
		d, err := expr.Diff(model.RHS, in)
		if err != nil {
			return nil, fmt.Errorf("explore: model not differentiable in %q: %w", in, err)
		}
		derivs[i] = d
	}
	// Compile against the model's own binding, as the fit engine does.
	derivKs := make([]expr.VecKernel, len(derivs))
	for i, d := range derivs {
		k, err := model.Kernel(d)
		if err != nil {
			return nil, fmt.Errorf("explore: compiling derivative: %w", err)
		}
		derivKs[i] = k
	}

	doms := make([][]float64, len(model.Inputs))
	for i, in := range model.Inputs {
		vals, ok := domains[in]
		if !ok || len(vals) == 0 {
			return nil, fmt.Errorf("explore: missing domain for input %q", in)
		}
		doms[i] = vals
	}

	var pts []GradientPoint
	np := len(model.Params)
	args := make([]expr.VecArg, np+len(model.Inputs))
	var slope [1]float64
	ev := model.Evaluator()
	defer ev.Release()
	idx := make([]int, len(doms))
	for _, key := range m.Order {
		g := m.Groups[key]
		if !g.OK() {
			continue
		}
		for j, p := range g.Params {
			args[j].Scalar = p
		}
		for i := range idx {
			idx[i] = 0
		}
		for {
			inputs := make([]float64, len(doms))
			for i := range doms {
				inputs[i] = doms[i][idx[i]]
				args[np+i].Scalar = inputs[i]
			}
			var ss float64
			for _, k := range derivKs {
				k(1, args, slope[:])
				ss += slope[0] * slope[0]
			}
			pts = append(pts, GradientPoint{
				Group:    key,
				Inputs:   inputs,
				Value:    ev.Eval(g.Params, inputs),
				GradNorm: math.Sqrt(ss),
			})
			// Odometer.
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(doms[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].GradNorm > pts[j].GradNorm })
	if topK > 0 && topK < len(pts) {
		pts = pts[:topK]
	}
	return pts, nil
}
