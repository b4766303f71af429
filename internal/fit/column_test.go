package fit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datalaws/internal/mat"
)

// nlsOracle fits one group with the exported row-major NLS: the model's own
// row evaluator, its analytic partials when it has them and central
// differences otherwise.
func nlsOracle(t *testing.T, m *Model, xs [][]float64, ys []float64, start map[string]float64, method Method) (*Result, error) {
	s := make([]float64, len(m.Params))
	for j, p := range m.Params {
		s[j] = 1
		if v, ok := start[p]; ok {
			s[j] = v
		}
	}
	o := &NLSOptions{Method: method}
	if m.HasAnalyticJacobian() {
		o.Jacobian = func(params, x, grad []float64) { m.Grad(params, x, grad) }
	}
	return NLS(func(params, x []float64) float64 { return m.Eval(params, x) }, xs, ys, s, m.Params, o)
}

// olsOracle fits y ~ a * x + b by OLS on the row-major design [x, 1].
func olsOracle(t *testing.T, m *Model, xs [][]float64, ys []float64, _ map[string]float64, _ Method) (*Result, error) {
	design := make([][]float64, len(xs))
	for i, x := range xs {
		design[i] = []float64{x[0], 1}
	}
	d, err := mat.NewFromRows(design)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OLS(d, ys, m.Params, true)
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		res.Fitted[i] = m.Eval(res.Params, x)
		res.Residuals[i] = ys[i] - res.Fitted[i]
	}
	return res, nil
}

// TestColumnFitMatchesRowNLS pins the column-major fit to the row-major
// solver bit for bit: per-group parameters, standard errors, RSS, R² and
// iteration counts from GroupedFit.Run equal those of NLS (or OLS) run on
// each group's rows, in input order, for analytic and numeric Jacobians,
// both optimizers, a linear law and several worker counts. Rows arrive
// shuffled across groups whose keys are unsorted, so the scatter must keep
// each group's row order; one group is too small to fit.
func TestColumnFitMatchesRowNLS(t *testing.T) {
	powerLaw := func(rng *rand.Rand) func(float64) float64 {
		p, alpha := 1+9*rng.Float64(), -1.5+1.2*rng.Float64()
		return func(nu float64) float64 { return p * math.Pow(nu, alpha) }
	}
	cases := []struct {
		name, formula string
		start         map[string]float64
		method        Method
		truth         func(rng *rand.Rand) func(float64) float64
		oracle        func(t *testing.T, m *Model, xs [][]float64, ys []float64, start map[string]float64, method Method) (*Result, error)
	}{
		{"power law LM", "y ~ p * pow(x, alpha)", map[string]float64{"p": 1, "alpha": -1}, LevenbergMarquardt, powerLaw, nlsOracle},
		{"power law GN", "y ~ p * pow(x, alpha)", map[string]float64{"p": 1, "alpha": -1}, GaussNewton, powerLaw, nlsOracle},
		{"numeric Jacobian", "y ~ a * atan(b * x)", map[string]float64{"a": 1, "b": 1}, LevenbergMarquardt,
			func(rng *rand.Rand) func(float64) float64 {
				a, b := 1+4*rng.Float64(), 0.5+2.5*rng.Float64()
				return func(x float64) float64 { return a * math.Atan(b*x) }
			}, nlsOracle},
		{"linear", "y ~ a * x + b", nil, LevenbergMarquardt,
			func(rng *rand.Rand) func(float64) float64 {
				a, b := -3+6*rng.Float64(), 10*rng.Float64()
				return func(x float64) float64 { return a*x + b }
			}, olsOracle},
	}
	for _, tc := range cases {
		m, err := ParseModel(tc.formula, []string{"x"})
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "numeric Jacobian" && m.HasAnalyticJacobian() {
			t.Fatalf("%s: %s differentiates symbolically; the case needs central differences", tc.name, tc.formula)
		}
		if tc.name == "linear" && !m.IsLinear() {
			t.Fatalf("%s: %s is not linear", tc.name, tc.formula)
		}

		// 40 groups of 5-40 rows under scattered keys, plus one 2-row
		// group below #params + 1 rows, shuffled together.
		rng := rand.New(rand.NewSource(31))
		var group []int64
		var xcol, ycol []float64
		const tiny = int64(-77)
		for g := 0; g < 41; g++ {
			key, rows := rng.Int63n(1_000_000)-500_000, 5+rng.Intn(36)
			if g == 40 {
				key, rows = tiny, 2
			}
			f := tc.truth(rng)
			for r := 0; r < rows; r++ {
				x := 0.1 + 1.9*rng.Float64()
				group = append(group, key)
				xcol = append(xcol, x)
				ycol = append(ycol, f(x)*(1+0.03*rng.NormFloat64()))
			}
		}
		rng.Shuffle(len(group), func(i, j int) {
			group[i], group[j] = group[j], group[i]
			xcol[i], xcol[j] = xcol[j], xcol[i]
			ycol[i], ycol[j] = ycol[j], ycol[i]
		})

		for _, workers := range []int{1, 4} {
			gf := &GroupedFit{Model: m, Start: tc.start, Opts: &NLSOptions{Method: tc.method}, Parallelism: workers}
			results, err := gf.Run(group, map[string][]float64{"x": xcol, "y": ycol})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 41 {
				t.Fatalf("%s: %d groups, want 41", tc.name, len(results))
			}
			for i, gr := range results {
				if i > 0 && gr.Key <= results[i-1].Key {
					t.Fatalf("%s: results not sorted by key", tc.name)
				}
				var xs [][]float64
				var ys []float64
				for r, k := range group {
					if k == gr.Key {
						xs = append(xs, []float64{xcol[r]})
						ys = append(ys, ycol[r])
					}
				}
				where := fmt.Sprintf("%s, %d workers, group %d", tc.name, workers, gr.Key)
				if gr.Key == tiny {
					want := fmt.Sprintf("%v: group %d has 2 rows, need %d", ErrTooFewObservations, tiny, len(m.Params)+1)
					if gr.Err == nil || gr.Err.Error() != want {
						t.Fatalf("%s: error %v, want %q", where, gr.Err, want)
					}
					continue
				}
				want, wantErr := tc.oracle(t, m, xs, ys, tc.start, tc.method)
				if (gr.Err == nil) != (wantErr == nil) || gr.Err != nil && gr.Err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, row oracle %v", where, gr.Err, wantErr)
				}
				if gr.Err == nil {
					sameFit(t, where, gr.Res, want)
				}
			}
		}

		// The ungrouped fit takes the same column path.
		var xs [][]float64
		for _, x := range xcol {
			xs = append(xs, []float64{x})
		}
		got, err := m.Fit(map[string][]float64{"x": xcol, "y": ycol}, tc.start, &NLSOptions{Method: tc.method})
		want, wantErr := tc.oracle(t, m, xs, ycol, tc.start, tc.method)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s, ungrouped: error %v, row oracle %v", tc.name, err, wantErr)
		}
		if err == nil {
			sameFit(t, tc.name+", ungrouped", got, want)
		}
	}
}

// sameFit fails unless got and want agree bit for bit.
func sameFit(t *testing.T, where string, got, want *Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameAll := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !same(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case !sameAll(got.Params, want.Params):
		t.Fatalf("%s: params %v, row oracle %v", where, got.Params, want.Params)
	case !sameAll(got.StdErrs, want.StdErrs):
		t.Fatalf("%s: standard errors %v, row oracle %v", where, got.StdErrs, want.StdErrs)
	case !same(got.RSS, want.RSS) || !same(got.R2, want.R2):
		t.Fatalf("%s: RSS %v R² %v, row oracle %v %v", where, got.RSS, got.R2, want.RSS, want.R2)
	case got.Iterations != want.Iterations || !same(got.Lambda, want.Lambda):
		t.Fatalf("%s: %d iterations (λ %v), row oracle %d (λ %v)", where, got.Iterations, got.Lambda, want.Iterations, want.Lambda)
	case !sameAll(got.Fitted, want.Fitted) || !sameAll(got.Residuals, want.Residuals):
		t.Fatalf("%s: fitted values or residuals differ from the row oracle", where)
	}
}
