package fit

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"datalaws/internal/expr"
	"datalaws/internal/mat"
)

// Model is a user-supplied statistical model: a formula "output ~ f(inputs,
// params)" where the free identifiers of the right-hand side that are not
// input columns are the unknown parameters to estimate (§3: "models consist
// of two parts, an arbitrary function of the input variables and various
// constant but unknown parameters").
type Model struct {
	// Output is the response column name (left of "~").
	Output string
	// RHS is the parsed model function.
	RHS expr.Expr
	// Inputs are the identifiers bound to data columns, in declaration
	// order.
	Inputs []string
	// Params are the identifiers to be estimated, sorted.
	Params []string

	// grads[j] is the analytic partial ∂RHS/∂Params[j], when the formula is
	// symbolically differentiable; otherwise nil and every gradient is a
	// central difference.
	grads []expr.Expr
	// linear reports whether RHS is linear in Params, enabling the direct
	// OLS path.
	linear bool

	// index binds params, then inputs, to positions of the vector kernels'
	// arguments.
	index map[string]int

	// free holds one-observation evaluators between calls. A compiled
	// kernel keeps scratch, so each goroutine evaluating the model takes
	// its own; a mutex-guarded list (not a sync.Pool, which drops items at
	// random under the race detector) keeps steady-state calls
	// allocation-free.
	mu   sync.Mutex
	free []*Evaluator
}

// ParseModel parses a formula of the form "output ~ expression". inputs
// names the identifiers that will be bound to data columns; every other
// identifier in the expression becomes a model parameter.
func ParseModel(formula string, inputs []string) (*Model, error) {
	parts := strings.SplitN(formula, "~", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("fit: formula %q must have the form \"output ~ expression\"", formula)
	}
	output := strings.TrimSpace(parts[0])
	if output == "" {
		return nil, fmt.Errorf("fit: formula %q has empty output", formula)
	}
	rhs, err := expr.Parse(parts[1])
	if err != nil {
		return nil, fmt.Errorf("fit: parsing model body: %w", err)
	}
	return NewModel(output, rhs, inputs)
}

// NewModel builds a Model from an already parsed right-hand side.
func NewModel(output string, rhs expr.Expr, inputs []string) (*Model, error) {
	inputSet := map[string]bool{}
	for _, in := range inputs {
		inputSet[in] = true
	}
	var params []string
	for _, v := range expr.Vars(rhs) {
		if !inputSet[v] {
			params = append(params, v)
		}
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("fit: model %q has no free parameters", rhs)
	}
	m := &Model{Output: output, RHS: rhs, Inputs: append([]string(nil), inputs...), Params: params}

	m.index = map[string]int{}
	for j, p := range params {
		m.index[p] = j
	}
	for k, in := range inputs {
		m.index[in] = len(params) + k
	}

	// Analytic partials when every parameter differentiates symbolically;
	// otherwise central differences.
	m.grads = make([]expr.Expr, len(params))
	for j, p := range params {
		d, err := expr.Diff(rhs, p)
		if err != nil {
			m.grads = nil
			break
		}
		m.grads[j] = d
	}

	// Compiling the first evaluator checks that the body is numeric.
	ev, err := m.newEvaluator()
	if err != nil {
		return nil, err
	}
	m.free = []*Evaluator{ev}

	// Linearity: the model is linear in its parameters iff no partial
	// derivative references any parameter.
	if m.grads != nil {
		m.linear = true
		for _, d := range m.grads {
			for _, v := range expr.Vars(d) {
				if j, ok := m.index[v]; ok && j < len(params) {
					m.linear = false
					break
				}
			}
			if !m.linear {
				break
			}
		}
	}
	return m, nil
}

// IsLinear reports whether the model is linear in its parameters, which
// admits the analytic OLS solution of §3 (and the analytic aggregate
// opportunities of §4.2).
func (m *Model) IsLinear() bool { return m.linear }

// HasAnalyticJacobian reports whether symbolic differentiation succeeded.
func (m *Model) HasAnalyticJacobian() bool { return m.grads != nil }

// Formula renders the model back to "output ~ rhs" source form, the shape
// the model store persists ("store the models in their source code form").
func (m *Model) Formula() string { return m.Output + " ~ " + m.RHS.String() }

// Eval computes f(params, inputs) for one observation.
func (m *Model) Eval(params, inputs []float64) float64 {
	e := m.Evaluator()
	v := e.Eval(params, inputs)
	e.Release()
	return v
}

// Grad fills out with the parameter gradient at (params, inputs): the
// analytic partials when the model has them, central differences otherwise.
func (m *Model) Grad(params, inputs, out []float64) {
	e := m.Evaluator()
	e.Grad(params, inputs, out)
	e.Release()
}

// Fit estimates the model parameters from columnar data. data must contain
// the output column and every input column, all of equal length. start maps
// parameter names to starting values (missing entries default to 1, which
// the caller — per the paper, the user — is responsible for overriding when
// convergence demands it).
//
// Linear-in-parameters models are solved directly by OLS on the analytic
// design matrix; nonlinear models run Levenberg-Marquardt (or the method in
// opts) seeded from start, with the model's own derivatives as Jacobian
// (opts.Jacobian is unused). Both evaluate the model column by column.
func (m *Model) Fit(data map[string][]float64, start map[string]float64, opts *NLSOptions) (*Result, error) {
	y, inputs, err := m.columns(data)
	if err != nil {
		return nil, err
	}
	e, err := m.newEvaluator()
	if err != nil {
		return nil, err
	}
	return e.fit(inputs, y, start, opts.value())
}

// columns resolves the output column and the input columns (parallel to
// m.Inputs) of data, checking that they are present and of equal length.
func (m *Model) columns(data map[string][]float64) (y []float64, inputs [][]float64, err error) {
	y, ok := data[m.Output]
	if !ok {
		return nil, nil, fmt.Errorf("%w: missing output column %q", ErrBadInput, m.Output)
	}
	inputs = make([][]float64, len(m.Inputs))
	for k, in := range m.Inputs {
		c, ok := data[in]
		if !ok {
			return nil, nil, fmt.Errorf("%w: missing input column %q", ErrBadInput, in)
		}
		if len(c) != len(y) {
			return nil, nil, fmt.Errorf("%w: column %q has %d rows, want %d", ErrBadInput, in, len(c), len(y))
		}
		inputs[k] = c
	}
	return y, inputs, nil
}

// Evaluator evaluates a model through the vector kernels of its formula
// and partials, the one compiled form of a law: a fit runs them over whole
// columns, and a one-observation call (Eval, Grad, Interval) runs them over
// one row. Kernels keep scratch between calls, so an Evaluator serves one
// goroutine at a time: each fitting worker owns one and reuses it across
// groups, and one-observation callers take one from Model.Evaluator and
// give it back with Release.
type Evaluator struct {
	m     *Model
	fn    expr.VecKernel
	grads []expr.VecKernel // nil: central differences
	args  []expr.VecArg    // params as scalars, then the inputs
	n     int              // observations bound in args
	a, b  []float64        // one Jacobian column; its backward difference
	y     [1]float64       // one observation's value
	grad  []float64        // one observation's gradient, for Interval
	work  lmWork

	// The Student-t quantile Interval last computed, for tDF degrees of
	// freedom at tLevel: rows of one group share both, so it is computed
	// once per group, not once per row. tDF is 0 before the first.
	tDF            int
	tLevel, tQuant float64
}

// Kernel compiles e, an expression over the model's parameters and inputs,
// into a vector kernel whose arguments are the parameters, then the inputs:
// the binding every evaluator of the model uses.
func (m *Model) Kernel(e expr.Expr) (expr.VecKernel, error) { return expr.CompileVec(e, m.index) }

func (m *Model) newEvaluator() (*Evaluator, error) {
	fn, err := m.Kernel(m.RHS)
	if err != nil {
		return nil, fmt.Errorf("fit: model body is not numeric: %w", err)
	}
	e := &Evaluator{m: m, fn: fn, args: make([]expr.VecArg, len(m.Params)+len(m.Inputs)), grad: make([]float64, len(m.Params))}
	for j, d := range m.grads {
		g, err := m.Kernel(d)
		if err != nil {
			return nil, fmt.Errorf("fit: partial ∂/∂%s is not numeric: %w", m.Params[j], err)
		}
		e.grads = append(e.grads, g)
	}
	return e, nil
}

// Evaluator takes an evaluator for one-observation calls from the model's
// free list, compiling one when the list is empty. Give it back with
// Release.
func (m *Model) Evaluator() *Evaluator {
	m.mu.Lock()
	if k := len(m.free); k > 0 {
		e := m.free[k-1]
		m.free = m.free[:k-1]
		m.mu.Unlock()
		return e
	}
	m.mu.Unlock()
	e, err := m.newEvaluator()
	if err != nil {
		panic(err) // NewModel compiled these kernels once already
	}
	return e
}

// Release gives e back to its model's free list; e must not be used after.
func (e *Evaluator) Release() {
	m := e.m
	m.mu.Lock()
	m.free = append(m.free, e)
	m.mu.Unlock()
}

// observe binds one observation's inputs.
func (e *Evaluator) observe(inputs []float64) {
	np := len(e.m.Params)
	e.n = 1
	for k, x := range inputs {
		e.args[np+k] = expr.VecArg{Scalar: x}
	}
}

// Eval computes f(params, inputs) for one observation.
func (e *Evaluator) Eval(params, inputs []float64) float64 {
	e.observe(inputs)
	e.eval(params, e.y[:])
	return e.y[0]
}

// Grad fills out with the parameter gradient at one observation, by the
// rule a fit's Jacobian uses.
func (e *Evaluator) Grad(params, inputs, out []float64) {
	e.observe(inputs)
	e.jacobian(params, &mat.Matrix{Rows: 1, Cols: len(out), Data: out})
}

// fit fits the model to y and the input columns parallel to m.Inputs.
func (e *Evaluator) fit(inputs [][]float64, y []float64, start map[string]float64, o NLSOptions) (*Result, error) {
	np := len(e.m.Params)
	e.n = len(y)
	for k, col := range inputs {
		e.args[np+k].Vec = col
	}
	if e.m.linear {
		return e.fitLinear(y)
	}
	beta := make([]float64, np)
	for j, p := range e.m.Params {
		beta[j] = 1
		if v, ok := start[p]; ok {
			beta[j] = v
		}
	}
	return e.work.solve(e, y, beta, e.m.Params, o)
}

func (e *Evaluator) setParams(beta []float64) {
	for j, v := range beta {
		e.args[j].Scalar = v
	}
}

func (e *Evaluator) eval(beta, out []float64) {
	e.setParams(beta)
	e.fn(e.n, e.args, out)
}

// jacobian fills j column by column, from the analytic partials or from
// central differences: the one gradient rule of a model.
func (e *Evaluator) jacobian(beta []float64, j *mat.Matrix) {
	p := j.Cols
	e.a, e.b = slices.Grow(e.a[:0], e.n)[:e.n], slices.Grow(e.b[:0], e.n)[:e.n]
	e.setParams(beta)
	for k := range beta {
		if e.grads != nil {
			e.grads[k](e.n, e.args, e.a)
		} else {
			h := 1e-7 * (math.Abs(beta[k]) + 1e-7)
			e.args[k].Scalar = beta[k] + h
			e.fn(e.n, e.args, e.a)
			e.args[k].Scalar = beta[k] - h
			e.fn(e.n, e.args, e.b)
			e.args[k].Scalar = beta[k]
			for i := range e.a {
				e.a[i] = (e.a[i] - e.b[i]) / (2 * h)
			}
		}
		for i, v := range e.a {
			j.Data[i*p+k] = v
		}
	}
}

// fitLinear solves a linear-in-parameters model directly. Writing
// f(β, x) = f(0, x) + Σ βj·gj(x) with gj = ∂f/∂βj, OLS on the gj columns
// against y − f(0, x) yields the exact least-squares estimate.
func (e *Evaluator) fitLinear(y []float64) (*Result, error) {
	n, p := len(y), len(e.m.Params)
	if n <= p {
		return nil, fmt.Errorf("%w: n=%d, p=%d", ErrTooFewObservations, n, p)
	}
	// OLS keeps neither the design nor the adjusted response, so both live
	// in the workspace.
	w := &e.work
	w.size(n, p)
	zero := w.trial
	clear(zero)
	e.jacobian(zero, &w.j)
	design := &w.j
	adj := w.resid
	e.eval(zero, adj)
	for i := range adj {
		adj[i] = y[i] - adj[i]
	}
	// Detect a constant design column, which plays the intercept role.
	hasIntercept := false
	for j := 0; j < p; j++ {
		constant := true
		for i := 1; i < n; i++ {
			if design.At(i, j) != design.At(0, j) {
				constant = false
				break
			}
		}
		if constant && design.At(0, j) != 0 {
			hasIntercept = true
			break
		}
	}
	res, err := OLS(design, adj, e.m.Params, hasIntercept)
	if err != nil {
		return nil, err
	}
	// Restore fitted/residuals on the original y scale.
	e.eval(res.Params, res.Fitted)
	for i := range res.Fitted {
		res.Residuals[i] = y[i] - res.Fitted[i]
	}
	return res, nil
}
