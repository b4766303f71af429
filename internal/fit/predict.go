package fit

import (
	"fmt"
	"math"

	"datalaws/internal/stats"
)

// Prediction is a model prediction annotated with uncertainty — the error
// bounds the paper requires for approximate answers ("annotate data
// approximated through the model with an indication of the error that is to
// be expected", §2).
type Prediction struct {
	// Value is the point prediction ŷ.
	Value float64
	// Lo and Hi bound the prediction interval at the requested level.
	Lo, Hi float64
	// Level is the confidence level used for Lo/Hi.
	Level float64
}

// Predict evaluates the fitted model at inputs and returns the prediction
// with a level-confidence prediction interval (see Interval).
func (m *Model) Predict(res *Result, inputs []float64, level float64) (Prediction, error) {
	if len(inputs) != len(m.Inputs) {
		return Prediction{}, fmt.Errorf("%w: %d inputs, want %d", ErrBadInput, len(inputs), len(m.Inputs))
	}
	if level <= 0 || level >= 1 {
		return Prediction{}, fmt.Errorf("%w: level %g outside (0,1)", ErrBadInput, level)
	}
	f := res.Estimate()
	p := Prediction{Value: m.Eval(f.Params, inputs), Level: level}
	p.Lo, p.Hi = m.Interval(&f, inputs, p.Value, level, 1)
	return p, nil
}

// Estimate is what a prediction interval reads of one fit.
type Estimate struct {
	Params []float64
	// Cov is the parameter covariance (nil when the information matrix
	// was singular).
	Cov        [][]float64
	ResidualSE float64
	DF         int
}

// Estimate copies r's parameters, covariance, residual SE and degrees of
// freedom.
func (r *Result) Estimate() Estimate {
	f := Estimate{Params: append([]float64(nil), r.Params...), ResidualSE: r.ResidualSE, DF: r.DF}
	if r.Cov != nil {
		f.Cov = make([][]float64, r.Cov.Rows)
		for i := range f.Cov {
			f.Cov[i] = r.Cov.Row(i)
		}
	}
	return f
}

// Interval is the level prediction interval around yhat, the model's value
// with f.Params at inputs, by the delta method: yhat ± t·se, where
// se = sqrt(gᵀ·Cov·g + s²)·inflate, g = ∂f/∂θ (Grad), s is the residual
// SE, t the Student-t quantile at f.DF degrees of freedom, and an
// inflate ≤ 1 leaves se as fitted. Without a covariance or degrees of
// freedom the interval is unbounded. Every prediction interval the engine
// reports, the error bounds of the paper's Figure 2 step 5, is this one.
func (m *Model) Interval(f *Estimate, inputs []float64, yhat, level, inflate float64) (lo, hi float64) {
	e := m.Evaluator()
	lo, hi = e.Interval(f, inputs, yhat, level, inflate)
	e.Release()
	return lo, hi
}

// Interval is Model.Interval on e.
func (e *Evaluator) Interval(f *Estimate, inputs []float64, yhat, level, inflate float64) (lo, hi float64) {
	if f.Cov == nil || f.DF <= 0 {
		return math.Inf(-1), math.Inf(1)
	}
	grad := e.grad
	e.Grad(f.Params, inputs, grad)
	var v float64
	for i := range grad {
		for j := range grad {
			v += grad[i] * f.Cov[i][j] * grad[j]
		}
	}
	if v < 0 {
		v = 0
	}
	se := math.Sqrt(v + f.ResidualSE*f.ResidualSE)
	if inflate > 1 {
		se *= inflate
	}
	if f.DF != e.tDF || level != e.tLevel {
		e.tDF, e.tLevel = f.DF, level
		e.tQuant = stats.StudentT{Nu: float64(f.DF)}.Quantile(0.5 + level/2)
	}
	return yhat - e.tQuant*se, yhat + e.tQuant*se
}
