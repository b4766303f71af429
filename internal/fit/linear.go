package fit

import (
	"fmt"
	"math"

	"datalaws/internal/mat"
)

// OLS fits the linear model y = Xβ + ε by ordinary least squares using a
// Householder QR factorization (the analytic solution of §3, computed
// stably rather than through the normal equations). names labels the columns
// of x; hasIntercept should be true when the first column of x is constant 1
// so that R² and the F-test are reported against the correct null model.
func OLS(x *mat.Matrix, y []float64, names []string, hasIntercept bool) (*Result, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: %d design rows vs %d responses", ErrBadInput, x.Rows, len(y))
	}
	if len(names) != x.Cols {
		return nil, fmt.Errorf("%w: %d names for %d columns", ErrBadInput, len(names), x.Cols)
	}
	if x.Rows <= x.Cols {
		return nil, fmt.Errorf("%w: n=%d, p=%d", ErrTooFewObservations, x.Rows, x.Cols)
	}
	if err := checkFinite(y); err != nil {
		return nil, err
	}
	if err := checkFinite(x.Data); err != nil {
		return nil, err
	}
	f, err := mat.Factor(x)
	if err != nil {
		return nil, err
	}
	beta, err := f.Solve(y)
	if err != nil {
		return nil, err
	}
	fitted, err := x.MulVec(beta)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ParamNames: append([]string(nil), names...),
		Params:     beta,
		Converged:  true,
	}
	finishResult(r, y, fitted, f, hasIntercept)
	return r, nil
}

// WLS fits y = Xβ + ε with per-observation weights w (inverse-variance
// weights), by rescaling rows with √w and delegating to the QR solver.
func WLS(x *mat.Matrix, y, w []float64, names []string, hasIntercept bool) (*Result, error) {
	if len(w) != len(y) || x.Rows != len(y) {
		return nil, fmt.Errorf("%w: inconsistent lengths", ErrBadInput)
	}
	xs := x.Clone()
	ys := make([]float64, len(y))
	for i, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			return nil, fmt.Errorf("%w: negative or NaN weight at %d", ErrBadInput, i)
		}
		s := math.Sqrt(wi)
		ys[i] = y[i] * s
		for j := 0; j < x.Cols; j++ {
			xs.Set(i, j, x.At(i, j)*s)
		}
	}
	res, err := OLS(xs, ys, names, hasIntercept)
	if err != nil {
		return nil, err
	}
	// Report residuals and fitted values on the original scale.
	fitted, err := x.MulVec(res.Params)
	if err != nil {
		return nil, err
	}
	for i := range fitted {
		res.Fitted[i] = fitted[i]
		res.Residuals[i] = y[i] - fitted[i]
	}
	return res, nil
}

// PolynomialDesign builds the Vandermonde design matrix
// [1, x, x², …, x^degree] used for polynomial regression (the model class of
// FunctionDB, one of the paper's comparison systems).
func PolynomialDesign(xs []float64, degree int) (*mat.Matrix, []string) {
	m := mat.New(len(xs), degree+1)
	names := make([]string, degree+1)
	for j := 0; j <= degree; j++ {
		if j == 0 {
			names[j] = "(intercept)"
		} else if j == 1 {
			names[j] = "x"
		} else {
			names[j] = fmt.Sprintf("x^%d", j)
		}
	}
	for i, x := range xs {
		v := 1.0
		for j := 0; j <= degree; j++ {
			m.Set(i, j, v)
			v *= x
		}
	}
	return m, names
}
