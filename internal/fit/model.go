package fit

import (
	"fmt"
	"math"
	"slices"
	"strings"

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
	// symbolically differentiable; otherwise nil and fitting falls back to
	// numeric differences.
	grads []expr.Expr
	// linear reports whether RHS is linear in Params, enabling the direct
	// OLS path.
	linear bool

	// index binds params, then inputs, to positions: of the row the
	// compiled evaluators read, and of the vector kernels' arguments.
	index map[string]int
	// Compiled evaluators against rows laid out as params followed by
	// inputs.
	fn      func(row []float64) float64
	gradFns []func(row []float64) float64
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

	index := map[string]int{}
	for j, p := range params {
		index[p] = j
	}
	for k, in := range inputs {
		index[in] = len(params) + k
	}
	fn, err := expr.Compile(rhs, index)
	if err != nil {
		return nil, fmt.Errorf("fit: model body is not numeric: %w", err)
	}
	m.fn = fn
	m.index = index

	// Attempt analytic gradients; on failure the numeric Jacobian is used.
	m.grads = make([]expr.Expr, len(params))
	m.gradFns = make([]func([]float64) float64, len(params))
	analytic := true
	for j, p := range params {
		d, err := expr.Diff(rhs, p)
		if err != nil {
			analytic = false
			break
		}
		g, err := expr.Compile(d, index)
		if err != nil {
			analytic = false
			break
		}
		m.grads[j] = d
		m.gradFns[j] = g
	}
	if !analytic {
		m.grads = nil
		m.gradFns = nil
	}

	// Linearity: the model is linear in its parameters iff no partial
	// derivative references any parameter.
	if analytic {
		m.linear = true
		for _, d := range m.grads {
			for _, v := range expr.Vars(d) {
				if _, isParam := index[v]; isParam && index[v] < len(params) {
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
func (m *Model) HasAnalyticJacobian() bool { return m.gradFns != nil }

// Formula renders the model back to "output ~ rhs" source form, the shape
// the model store persists ("store the models in their source code form").
func (m *Model) Formula() string { return m.Output + " ~ " + m.RHS.String() }

// Eval computes f(params, inputs) for one observation.
func (m *Model) Eval(params, inputs []float64) float64 {
	row := make([]float64, len(params)+len(inputs))
	copy(row, params)
	copy(row[len(params):], inputs)
	return m.fn(row)
}

// EvalInto is Eval with a caller-provided scratch row to avoid allocation in
// scan loops. row must have length len(Params)+len(Inputs).
func (m *Model) EvalInto(row, params, inputs []float64) float64 {
	copy(row, params)
	copy(row[len(params):], inputs)
	return m.fn(row)
}

// Grad fills out with the parameter gradient at (params, inputs) using
// analytic derivatives when available and central differences otherwise.
func (m *Model) Grad(params, inputs, out []float64) {
	if m.gradFns != nil {
		row := make([]float64, len(params)+len(inputs))
		copy(row, params)
		copy(row[len(params):], inputs)
		for j, g := range m.gradFns {
			out[j] = g(row)
		}
		return
	}
	numericJacobian(func(p, x []float64) float64 { return m.Eval(p, x) })(params, inputs, out)
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
	c, err := m.newColFitter()
	if err != nil {
		return nil, err
	}
	return c.fit(inputs, y, start, opts.withDefaults())
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

// colFitter fits a model over whole columns through the vector kernels
// VecModelScan evaluates APPROX scans with, doing per row the float
// operations of Eval and Grad in their order. Kernels keep scratch between
// calls, so each fitting worker owns a colFitter and reuses it across groups.
type colFitter struct {
	m     *Model
	fn    expr.VecKernel
	grads []expr.VecKernel // nil: central differences over whole columns
	args  []expr.VecArg    // params as scalars, then the input columns
	n     int              // observations bound in args
	a, b  []float64        // one Jacobian column; its backward difference
	work  lmWork
}

func (m *Model) newColFitter() (*colFitter, error) {
	fn, err := expr.CompileVec(m.RHS, m.index)
	if err != nil {
		return nil, fmt.Errorf("fit: model body is not numeric: %w", err)
	}
	c := &colFitter{m: m, fn: fn, args: make([]expr.VecArg, len(m.Params)+len(m.Inputs))}
	for j, d := range m.grads {
		g, err := expr.CompileVec(d, m.index)
		if err != nil {
			return nil, fmt.Errorf("fit: partial ∂/∂%s is not numeric: %w", m.Params[j], err)
		}
		c.grads = append(c.grads, g)
	}
	return c, nil
}

// fit fits the model to y and the input columns parallel to m.Inputs.
func (c *colFitter) fit(inputs [][]float64, y []float64, start map[string]float64, o NLSOptions) (*Result, error) {
	np := len(c.m.Params)
	c.n = len(y)
	for k, col := range inputs {
		c.args[np+k].Vec = col
	}
	if c.m.linear {
		return c.fitLinear(y)
	}
	beta := make([]float64, np)
	for j, p := range c.m.Params {
		beta[j] = 1
		if v, ok := start[p]; ok {
			beta[j] = v
		}
	}
	return c.work.solve(c, y, beta, c.m.Params, o)
}

func (c *colFitter) setParams(beta []float64) {
	for j, v := range beta {
		c.args[j].Scalar = v
	}
}

func (c *colFitter) eval(beta, out []float64) {
	c.setParams(beta)
	c.fn(c.n, c.args, out)
}

// jacobian fills j column by column, from the analytic partials or from
// central differences with the row path's step sizes.
func (c *colFitter) jacobian(beta []float64, j *mat.Matrix) {
	p := j.Cols
	c.a, c.b = slices.Grow(c.a[:0], c.n)[:c.n], slices.Grow(c.b[:0], c.n)[:c.n]
	c.setParams(beta)
	for k := range beta {
		if c.grads != nil {
			c.grads[k](c.n, c.args, c.a)
		} else {
			h := 1e-7 * (math.Abs(beta[k]) + 1e-7)
			c.args[k].Scalar = beta[k] + h
			c.fn(c.n, c.args, c.a)
			c.args[k].Scalar = beta[k] - h
			c.fn(c.n, c.args, c.b)
			c.args[k].Scalar = beta[k]
			for i := range c.a {
				c.a[i] = (c.a[i] - c.b[i]) / (2 * h)
			}
		}
		for i, v := range c.a {
			j.Data[i*p+k] = v
		}
	}
}

// fitLinear solves a linear-in-parameters model directly. Writing
// f(β, x) = f(0, x) + Σ βj·gj(x) with gj = ∂f/∂βj, OLS on the gj columns
// against y − f(0, x) yields the exact least-squares estimate.
func (c *colFitter) fitLinear(y []float64) (*Result, error) {
	n, p := len(y), len(c.m.Params)
	if n <= p {
		return nil, fmt.Errorf("%w: n=%d, p=%d", ErrTooFewObservations, n, p)
	}
	// OLS keeps neither the design nor the adjusted response, so both live
	// in the workspace.
	w := &c.work
	w.size(n, p)
	zero := w.trial
	clear(zero)
	c.jacobian(zero, &w.j)
	design := &w.j
	adj := w.resid
	c.eval(zero, adj)
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
	res, err := OLS(design, adj, c.m.Params, hasIntercept)
	if err != nil {
		return nil, err
	}
	// Restore fitted/residuals on the original y scale.
	c.eval(res.Params, res.Fitted)
	for i := range res.Fitted {
		res.Residuals[i] = y[i] - res.Fitted[i]
	}
	return res, nil
}
