package fit

import (
	"fmt"
	"math"
	"slices"

	"datalaws/internal/mat"
)

// ModelFunc evaluates a model at one observation: params are the current
// parameter estimates, x the input values for the observation.
type ModelFunc func(params, x []float64) float64

// JacFunc fills grad with ∂f/∂params at one observation.
type JacFunc func(params, x, grad []float64)

// Method selects the nonlinear optimizer.
type Method uint8

// Optimizer methods. Levenberg-Marquardt is the default: it is Gauss-Newton
// with adaptive damping, so it degrades gracefully when the Gauss-Newton step
// overshoots — the convergence fragility the paper warns about in §3.
const (
	LevenbergMarquardt Method = iota
	GaussNewton
)

func (m Method) String() string {
	if m == GaussNewton {
		return "gauss-newton"
	}
	return "levenberg-marquardt"
}

// NLSOptions configures the nonlinear solver. The zero value selects
// Levenberg-Marquardt.
type NLSOptions struct {
	Method   Method
	Jacobian JacFunc // NLS's analytic Jacobian (nil: central differences); Model fits use their own
}

// The solver's stopping rule and Levenberg-Marquardt damping schedule.
const (
	maxIter    = 100
	tolRSS     = 1e-10 // relative RSS improvement
	tolStep    = 1e-10 // relative parameter step
	lambdaInit = 1e-3
	lambdaUp   = 10
	lambdaDown = 0.1
)

// value is *o, or the zero options when o is nil.
func (o *NLSOptions) value() NLSOptions {
	if o == nil {
		return NLSOptions{}
	}
	return *o
}

// NLS fits a nonlinear least-squares model f(β, x) ≈ y starting from start.
// xs holds one input row per observation. names labels the parameters.
//
// Gauss-Newton solves min‖J·δ − r‖ each step via QR; Levenberg-Marquardt
// augments the system with the damped rows √λ·diag(JᵀJ)^½ and adapts λ,
// accepting only steps that reduce the residual sum of squares.
func NLS(f ModelFunc, xs [][]float64, y []float64, start []float64, names []string, opts *NLSOptions) (*Result, error) {
	if len(xs) != len(y) {
		return nil, fmt.Errorf("%w: %d input rows vs %d responses", ErrBadInput, len(xs), len(y))
	}
	o := opts.value()
	jac := o.Jacobian
	if jac == nil {
		jac = numericJacobian(f)
	}
	var w lmWork
	return w.solve(&rowEval{f: f, jac: jac, xs: xs}, y, append([]float64(nil), start...), names, o)
}

// objective is what the solver asks of a model over one fit's n
// observations: the fitted values and the n×p Jacobian at β.
type objective interface {
	eval(beta, out []float64)
	jacobian(beta []float64, j *mat.Matrix)
}

// rowEval evaluates a ModelFunc over row-major inputs, one call per
// observation.
type rowEval struct {
	f   ModelFunc
	jac JacFunc
	xs  [][]float64
}

func (r *rowEval) eval(beta, out []float64) {
	for i, x := range r.xs {
		out[i] = r.f(beta, x)
	}
}

func (r *rowEval) jacobian(beta []float64, j *mat.Matrix) {
	p := j.Cols
	for i, x := range r.xs {
		r.jac(beta, x, j.Data[i*p:(i+1)*p])
	}
}

// lmWork is one solver's reusable state. aug is the augmented system
// [J; √λ·D] of a Levenberg-Marquardt step, whose top n×p block doubles as
// the Jacobian j; rhs is its right-hand side. Buffers grow to the largest
// fit a worker runs and are reused across iterations and fits.
type lmWork struct {
	j, aug                        mat.Matrix
	rhs, resid, trialResid, trial []float64
}

// size shapes the workspace for n observations and p parameters.
func (w *lmWork) size(n, p int) {
	w.aug = mat.Matrix{Rows: n + p, Cols: p, Data: slices.Grow(w.aug.Data[:0], (n+p)*p)[:(n+p)*p]}
	w.j = mat.Matrix{Rows: n, Cols: p, Data: w.aug.Data[:n*p]}
	w.rhs = slices.Grow(w.rhs[:0], n+p)[:n+p]
	w.resid = slices.Grow(w.resid[:0], n)[:n]
	w.trialResid = slices.Grow(w.trialResid[:0], n)[:n]
	w.trial = slices.Grow(w.trial[:0], p)[:p]
}

// solve runs the optimizer from beta, which it owns and returns as the
// fitted parameters.
func (w *lmWork) solve(ev objective, y, beta []float64, names []string, o NLSOptions) (*Result, error) {
	n, p := len(y), len(beta)
	if len(names) != p {
		return nil, fmt.Errorf("%w: %d names for %d params", ErrBadInput, len(names), p)
	}
	if n <= p {
		return nil, fmt.Errorf("%w: n=%d, p=%d", ErrTooFewObservations, n, p)
	}
	if err := checkFinite(y); err != nil {
		return nil, err
	}
	if err := checkFinite(beta); err != nil {
		return nil, err
	}

	w.size(n, p)
	rss := residuals(ev, beta, y, w.resid)
	if math.IsNaN(rss) || math.IsInf(rss, 0) {
		return nil, fmt.Errorf("%w: model not finite at starting parameters", ErrBadInput)
	}

	lambda := lambdaInit
	if o.Method == GaussNewton {
		lambda = 0
	}
	var iter int
	converged := false
	// jacFresh reports whether w.j holds the Jacobian at beta; a rejected
	// step leaves beta, and so the Jacobian, unchanged.
	jacFresh := false

	for iter = 1; iter <= maxIter; iter++ {
		// The Jacobian J (n×p) of the model, so residual Jacobian is −J.
		if !jacFresh {
			ev.jacobian(beta, &w.j)
			jacFresh = true
		}

		var step []float64
		var err error
		if o.Method == GaussNewton {
			step, err = mat.SolveLS(&w.j, w.resid)
			if err != nil {
				return nil, fmt.Errorf("fit: gauss-newton step failed at iteration %d: %w", iter, err)
			}
		} else {
			step, err = w.lmStep(lambda)
			if err != nil {
				// Increase damping and retry on singular systems.
				lambda *= lambdaUp
				continue
			}
		}

		for k := range w.trial {
			w.trial[k] = beta[k] + step[k]
		}
		newRSS := residuals(ev, w.trial, y, w.trialResid)

		accepted := !math.IsNaN(newRSS) && !math.IsInf(newRSS, 0) && newRSS <= rss
		if o.Method == GaussNewton {
			// Classic Gauss-Newton always takes the step; divergence
			// surfaces as non-convergence.
			if math.IsNaN(newRSS) || math.IsInf(newRSS, 0) {
				return nil, fmt.Errorf("%w: diverged at iteration %d", ErrNoConverge, iter)
			}
			accepted = true
		}
		if accepted {
			relImprove := 0.0
			if rss > 0 {
				relImprove = (rss - newRSS) / rss
			}
			relStep := relativeStep(step, beta)
			copy(beta, w.trial)
			w.resid, w.trialResid = w.trialResid, w.resid
			jacFresh = false
			rss = newRSS
			lambda *= lambdaDown
			if lambda < 1e-12 {
				lambda = 1e-12
			}
			if relImprove >= 0 && relImprove < tolRSS || relStep < tolStep {
				converged = true
				break
			}
		} else {
			// A rejected step that is already below the step tolerance means
			// the optimizer cannot move: more damping only shrinks it
			// further. Declaring convergence here (MINPACK's xtol on the
			// trial step) is what makes warm-started refits cheap — a fit
			// seeded at the previous optimum stops after one Jacobian build
			// instead of climbing the damping ladder to saturation.
			if relativeStep(step, beta) < tolStep {
				converged = true
				break
			}
			lambda *= lambdaUp
			if lambda > 1e12 {
				// Damping saturated: we are at a (possibly local) minimum.
				converged = true
				break
			}
		}
	}

	if !converged {
		return nil, fmt.Errorf("%w after %d iterations (rss=%g)", ErrNoConverge, maxIter, rss)
	}

	// Final Jacobian at the solution for the covariance estimate.
	if !jacFresh {
		ev.jacobian(beta, &w.j)
	}
	fitted := make([]float64, n)
	ev.eval(beta, fitted)
	var fqr *mat.QR
	if q, err := mat.Factor(&w.j); err == nil {
		fqr = q
	}
	r := &Result{
		ParamNames: append([]string(nil), names...),
		Params:     beta,
		Converged:  true,
		Iterations: iter,
		Lambda:     lambda,
	}
	finishResult(r, y, fitted, fqr, false)
	return r, nil
}

// residuals fills out with y − f(β, x) and returns the RSS.
func residuals(ev objective, beta, y, out []float64) float64 {
	ev.eval(beta, out)
	var rss float64
	for i := range y {
		r := y[i] - out[i]
		out[i] = r
		rss += r * r
	}
	return rss
}

func relativeStep(step, beta []float64) float64 {
	var m float64
	for k := range step {
		d := math.Abs(step[k]) / (math.Abs(beta[k]) + 1e-12)
		if d > m {
			m = d
		}
	}
	return m
}

// numericJacobian returns a central-difference Jacobian for f.
func numericJacobian(f ModelFunc) JacFunc {
	return func(params, x, grad []float64) {
		tmp := append([]float64(nil), params...)
		for j := range params {
			h := 1e-7 * (math.Abs(params[j]) + 1e-7)
			tmp[j] = params[j] + h
			fp := f(tmp, x)
			tmp[j] = params[j] - h
			fm := f(tmp, x)
			tmp[j] = params[j]
			grad[j] = (fp - fm) / (2 * h)
		}
	}
}

// lmStep solves the damped system (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr by augmenting
// the least-squares problem with scaled unit rows, preserving QR stability.
func (w *lmWork) lmStep(lambda float64) ([]float64, error) {
	n, p := w.j.Rows, w.j.Cols
	if lambda == 0 {
		return mat.SolveLS(&w.j, w.resid)
	}
	damp := w.aug.Data[n*p:]
	clear(damp)
	for c := 0; c < p; c++ {
		// Column norms give diag(JᵀJ).
		var s float64
		for i := 0; i < n; i++ {
			v := w.j.At(i, c)
			s += v * v
		}
		// Guard zero columns so the augmented matrix keeps full rank.
		if s == 0 {
			s = 1e-12
		}
		damp[c*p+c] = math.Sqrt(lambda * s)
	}
	copy(w.rhs, w.resid)
	clear(w.rhs[n:])
	return mat.SolveLS(&w.aug, w.rhs)
}
