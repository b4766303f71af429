package fit

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"datalaws/internal/mat"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// --- OLS ---

func TestOLSRecoversKnownCoefficients(t *testing.T) {
	// y = 3 + 2x, exact.
	xs := make([]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3 + 2*xs[i]
	}
	x, names := PolynomialDesign(xs, 1)
	res, err := OLS(x, ys, names, true)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Params[0], 3, 1e-10) || !near(res.Params[1], 2, 1e-10) {
		t.Fatalf("params = %v", res.Params)
	}
	if !near(res.R2, 1, 1e-12) {
		t.Fatalf("R2 = %g, want 1", res.R2)
	}
	if res.ResidualSE > 1e-9 {
		t.Fatalf("residual SE = %g, want ≈0", res.ResidualSE)
	}
}

func TestOLSAgainstRReference(t *testing.T) {
	// Small dataset checked by hand with the closed-form simple-regression
	// formulas: slope = (nΣxy − ΣxΣy)/(nΣx² − (Σx)²) = 670/336,
	// intercept = ȳ − slope·x̄ = 9.0125 − (670/336)·4.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9, 14.2, 15.9}
	x, names := PolynomialDesign(xs, 1)
	res, err := OLS(x, ys, names, true)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := 670.0 / 336.0
	wantIntercept := 9.0125 - wantSlope*4.5
	if !near(res.Params[0], wantIntercept, 1e-10) {
		t.Fatalf("intercept = %.10f, want %.10f", res.Params[0], wantIntercept)
	}
	if !near(res.Params[1], wantSlope, 1e-10) {
		t.Fatalf("slope = %.10f, want %.10f", res.Params[1], wantSlope)
	}
	if res.DF != 6 {
		t.Fatalf("df = %d, want 6", res.DF)
	}
	// This near-linear data must explain essentially all variance.
	if res.R2 < 0.998 {
		t.Fatalf("R2 = %g", res.R2)
	}
	// Slope p-value must be tiny, intercept insignificant.
	if res.PVals[1] > 1e-8 {
		t.Fatalf("slope p = %g", res.PVals[1])
	}
	if res.PVals[0] < 0.05 {
		t.Fatalf("intercept p = %g, want insignificant", res.PVals[0])
	}
}

func TestOLSErrors(t *testing.T) {
	x := mat.New(3, 3)
	if _, err := OLS(x, []float64{1, 2, 3}, []string{"a", "b", "c"}, false); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("want ErrTooFewObservations, got %v", err)
	}
	x2 := mat.New(4, 2)
	if _, err := OLS(x2, []float64{1, 2, 3}, []string{"a", "b"}, false); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
	if _, err := OLS(x2, []float64{1, 2, 3, math.NaN()}, []string{"a", "b"}, false); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput for NaN, got %v", err)
	}
}

func TestOLSResidualsSumToZeroWithIntercept(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = 1 + 0.5*xs[i] + rng.NormFloat64()
		}
		x, names := PolynomialDesign(xs, 1)
		res, err := OLS(x, ys, names, true)
		if err != nil {
			return false
		}
		var s float64
		for _, r := range res.Residuals {
			s += r
		}
		return math.Abs(s) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWLSMatchesOLSWithUnitWeights(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1.1, 2.3, 2.8, 4.2, 5.1, 5.8}
	x, names := PolynomialDesign(xs, 1)
	w := []float64{1, 1, 1, 1, 1, 1}
	a, err := OLS(x, ys, names, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WLS(x, ys, w, names, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Params {
		if !near(a.Params[i], b.Params[i], 1e-12) {
			t.Fatalf("WLS(1) != OLS: %v vs %v", b.Params, a.Params)
		}
	}
}

func TestWLSDownweightsOutlier(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1, 2, 3, 4, 5, 60} // gross outlier at the end
	x, names := PolynomialDesign(xs, 1)
	w := []float64{1, 1, 1, 1, 1, 1e-9}
	res, err := WLS(x, ys, w, names, true)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Params[0], 0, 1e-5) || !near(res.Params[1], 1, 1e-5) {
		t.Fatalf("weighted fit = %v, want ≈[0 1]", res.Params)
	}
}

func TestWLSRejectsNegativeWeight(t *testing.T) {
	x, names := PolynomialDesign([]float64{1, 2, 3}, 1)
	if _, err := WLS(x, []float64{1, 2, 3}, []float64{1, -1, 1}, names, true); err == nil {
		t.Fatal("want error for negative weight")
	}
}

// --- NLS ---

func powerLaw(params, x []float64) float64 {
	return params[0] * math.Pow(x[0], params[1])
}

func makePowerLawData(rng *rand.Rand, p, alpha float64, n int, noise float64) ([][]float64, []float64) {
	bands := []float64{0.12, 0.15, 0.16, 0.18}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		nu := bands[i%len(bands)]
		xs[i] = []float64{nu}
		ys[i] = p * math.Pow(nu, alpha) * (1 + noise*rng.NormFloat64())
	}
	return xs, ys
}

func TestNLSPowerLawLM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs, ys := makePowerLawData(rng, 0.06, -0.7, 200, 0.05)
	res, err := NLS(powerLaw, xs, ys, []float64{1, -1}, []string{"p", "alpha"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if !near(res.Params[0], 0.06, 0.01) || !near(res.Params[1], -0.7, 0.1) {
		t.Fatalf("params = %v, want ≈[0.06 -0.7]", res.Params)
	}
	if res.R2 < 0.5 {
		t.Fatalf("R2 = %g", res.R2)
	}
}

func TestNLSPowerLawGaussNewton(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := makePowerLawData(rng, 0.06, -0.7, 100, 0.02)
	res, err := NLS(powerLaw, xs, ys, []float64{0.1, -0.5}, []string{"p", "alpha"},
		&NLSOptions{Method: GaussNewton})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Params[0], 0.06, 0.01) || !near(res.Params[1], -0.7, 0.1) {
		t.Fatalf("params = %v", res.Params)
	}
}

func TestNLSExactDataZeroResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys := makePowerLawData(rng, 0.5, -1.2, 50, 0)
	res, err := NLS(powerLaw, xs, ys, []float64{1, -1}, []string{"p", "alpha"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Params[0], 0.5, 1e-6) || !near(res.Params[1], -1.2, 1e-6) {
		t.Fatalf("params = %v", res.Params)
	}
	if res.RSS > 1e-12 {
		t.Fatalf("RSS = %g", res.RSS)
	}
}

func TestNLSAnalyticJacobianMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := makePowerLawData(rng, 0.06, -0.7, 120, 0.03)
	analytic := func(params, x, grad []float64) {
		grad[0] = math.Pow(x[0], params[1])
		grad[1] = params[0] * math.Pow(x[0], params[1]) * math.Log(x[0])
	}
	a, err := NLS(powerLaw, xs, ys, []float64{1, -1}, []string{"p", "alpha"},
		&NLSOptions{Jacobian: analytic})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NLS(powerLaw, xs, ys, []float64{1, -1}, []string{"p", "alpha"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Params {
		if !near(a.Params[i], b.Params[i], 1e-5) {
			t.Fatalf("analytic %v vs numeric %v", a.Params, b.Params)
		}
	}
}

func TestNLSErrors(t *testing.T) {
	xs := [][]float64{{1}, {2}}
	ys := []float64{1, 2}
	if _, err := NLS(powerLaw, xs, ys, []float64{1, 1}, []string{"p", "a"}, nil); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("want ErrTooFewObservations, got %v", err)
	}
	if _, err := NLS(powerLaw, xs, []float64{1, 2, 3}, []float64{1}, []string{"p"}, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
}

func TestNLSNonFiniteStart(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{1, 2, 3, 4}
	if _, err := NLS(powerLaw, xs, ys, []float64{math.NaN(), 1}, []string{"p", "a"}, nil); err == nil {
		t.Fatal("want error for NaN start")
	}
}

// --- Model (formula-driven) ---

func TestParseModelPowerLaw(t *testing.T) {
	m, err := ParseModel("intensity ~ p * pow(nu, alpha)", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Output != "intensity" {
		t.Fatalf("output = %q", m.Output)
	}
	if len(m.Params) != 2 || m.Params[0] != "alpha" || m.Params[1] != "p" {
		t.Fatalf("params = %v", m.Params)
	}
	if m.IsLinear() {
		t.Fatal("power law must not be detected linear")
	}
	if !m.HasAnalyticJacobian() {
		t.Fatal("power law should have analytic jacobian")
	}
}

func TestParseModelErrors(t *testing.T) {
	if _, err := ParseModel("no tilde here", nil); err == nil {
		t.Fatal("want error for missing ~")
	}
	if _, err := ParseModel("y ~ x + 1", []string{"x"}); err == nil {
		t.Fatal("want error for parameterless model")
	}
	if _, err := ParseModel("y ~ $$", []string{"x"}); err == nil {
		t.Fatal("want parse error")
	}
}

func TestModelLinearDetection(t *testing.T) {
	cases := []struct {
		formula string
		inputs  []string
		linear  bool
	}{
		{"y ~ a + b*x", []string{"x"}, true},
		{"y ~ a + b*x + c*x*x", []string{"x"}, true},
		{"y ~ a*exp(x) + b", []string{"x"}, true}, // linear in a,b
		{"y ~ a*exp(b*x)", []string{"x"}, false},
		{"y ~ p * pow(nu, alpha)", []string{"nu"}, false},
		{"y ~ a + b*log(x)", []string{"x"}, true},
	}
	for _, c := range cases {
		m, err := ParseModel(c.formula, c.inputs)
		if err != nil {
			t.Fatalf("%q: %v", c.formula, err)
		}
		if m.IsLinear() != c.linear {
			t.Errorf("%q: IsLinear = %v, want %v", c.formula, m.IsLinear(), c.linear)
		}
	}
}

func TestModelFitLinearFormula(t *testing.T) {
	// y = 2 + 3x − 0.5x², fitted through the formula path.
	m, err := ParseModel("y ~ a + b*x + c*x*x", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	n := 60
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := float64(i) * 0.2
		xs[i] = x
		ys[i] = 2 + 3*x - 0.5*x*x
	}
	res, err := m.Fit(map[string][]float64{"x": xs, "y": ys}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for i, nme := range res.ParamNames {
		got[nme] = res.Params[i]
	}
	if !near(got["a"], 2, 1e-8) || !near(got["b"], 3, 1e-8) || !near(got["c"], -0.5, 1e-8) {
		t.Fatalf("params = %v", got)
	}
	if res.Iterations != 0 {
		t.Fatalf("linear model must not iterate, got %d", res.Iterations)
	}
}

func TestModelFitNonlinearFormula(t *testing.T) {
	m, err := ParseModel("I ~ p * pow(nu, alpha)", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xs, ys := makePowerLawData(rng, 0.06, -0.7, 160, 0.05)
	nus := make([]float64, len(xs))
	for i := range xs {
		nus[i] = xs[i][0]
	}
	res, err := m.Fit(map[string][]float64{"nu": nus, "I": ys},
		map[string]float64{"p": 1, "alpha": -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.ParamByName("p")
	alpha, _ := res.ParamByName("alpha")
	if !near(p, 0.06, 0.01) || !near(alpha, -0.7, 0.1) {
		t.Fatalf("p=%g alpha=%g", p, alpha)
	}
}

func TestModelMissingColumns(t *testing.T) {
	m, _ := ParseModel("y ~ a*x + b", []string{"x"})
	if _, err := m.Fit(map[string][]float64{"x": {1, 2, 3}}, nil, nil); err == nil {
		t.Fatal("want error for missing output column")
	}
	if _, err := m.Fit(map[string][]float64{"y": {1, 2, 3}}, nil, nil); err == nil {
		t.Fatal("want error for missing input column")
	}
}

func TestModelFormulaRoundTrip(t *testing.T) {
	m, err := ParseModel("I ~ p * pow(nu, alpha)", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseModel(m.Formula(), []string{"nu"})
	if err != nil {
		t.Fatalf("reparse %q: %v", m.Formula(), err)
	}
	if m2.Output != m.Output || len(m2.Params) != len(m.Params) {
		t.Fatalf("round trip mismatch: %v vs %v", m2, m)
	}
}

func TestModelGradMatchesNumeric(t *testing.T) {
	m, err := ParseModel("I ~ p * pow(nu, alpha)", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{-0.7, 0.06} // sorted order: alpha, p
	inputs := []float64{0.14}
	g := make([]float64, 2)
	m.Grad(params, inputs, g)
	// Numeric check.
	gn := make([]float64, 2)
	numericJacobian(func(p, x []float64) float64 { return m.Eval(p, x) })(params, inputs, gn)
	for i := range g {
		if !near(g[i], gn[i], 1e-5) {
			t.Fatalf("grad[%d] analytic %g vs numeric %g", i, g[i], gn[i])
		}
	}
}

// evalLaws are the formulas the one-observation tests run: the power law,
// whose partials are analytic, and one whose max has no symbolic
// derivative, so its gradient is a central difference.
var evalLaws = []string{"I ~ p * pow(nu, alpha)", "I ~ p * max(nu, alpha)"}

// TestModelEvalAllocs pins the one-observation evaluation under every APPROX
// point lookup, interval, drift observation and anomaly scan: Eval and Grad
// run the model's vector kernels without touching the heap.
func TestModelEvalAllocs(t *testing.T) {
	for _, law := range evalLaws {
		m, err := ParseModel(law, []string{"nu"})
		if err != nil {
			t.Fatal(err)
		}
		params, inputs := []float64{-0.7, 2.5}, []float64{0.15}
		grad := make([]float64, len(params))
		var sink float64
		if n := testing.AllocsPerRun(100, func() { sink += m.Eval(params, inputs) }); n != 0 {
			t.Errorf("%s: Eval %.0f allocations, want 0", law, n)
		}
		if n := testing.AllocsPerRun(100, func() { m.Grad(params, inputs, grad) }); n != 0 {
			t.Errorf("%s: Grad %.0f allocations, want 0", law, n)
		}
	}
}

// TestModelEvalConcurrent shares one model among goroutines: each call takes
// its own evaluator, so concurrent Eval, Grad and Interval results equal the
// serial ones bit for bit.
func TestModelEvalConcurrent(t *testing.T) {
	type answer struct{ v, lo, hi float64 }
	for _, law := range evalLaws {
		m, err := ParseModel(law, []string{"nu"})
		if err != nil {
			t.Fatal(err)
		}
		f := &Estimate{Params: []float64{-0.7, 2.5}, Cov: [][]float64{{0.01, 0.002}, {0.002, 0.04}}, ResidualSE: 0.1, DF: 20}
		const points = 64
		at := func(i int) []float64 { return []float64{0.05 + 0.01*float64(i)} }
		run := func(i int, grad []float64) answer {
			in := at(i)
			v := m.Eval(f.Params, in)
			m.Grad(f.Params, in, grad)
			lo, hi := m.Interval(f, in, v, 0.95, 1.2)
			return answer{v + grad[0] + grad[1], lo, hi}
		}
		want := make([]answer, points)
		for i := range want {
			want[i] = run(i, make([]float64, 2))
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				grad := make([]float64, 2)
				for r := 0; r < 20; r++ {
					for i := range want {
						if got := run((i+w)%points, grad); got != want[(i+w)%points] {
							t.Errorf("%s: point %d: %+v concurrently, %+v serially", law, (i+w)%points, got, want[(i+w)%points])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// --- Grouped fitting ---

func TestGroupedFitPerSource(t *testing.T) {
	m, err := ParseModel("I ~ p * pow(nu, alpha)", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	truth := map[int64][2]float64{
		1: {0.06, -0.72}, 2: {0.07, -0.89}, 3: {0.56, -0.79},
	}
	var group []int64
	var nus, is []float64
	bands := []float64{0.12, 0.15, 0.16, 0.18}
	for src, pa := range truth {
		for rep := 0; rep < 80; rep++ {
			nu := bands[rep%4]
			group = append(group, src)
			nus = append(nus, nu)
			is = append(is, pa[0]*math.Pow(nu, pa[1])*(1+0.02*rng.NormFloat64()))
		}
	}
	gf := &GroupedFit{Model: m, Start: map[string]float64{"p": 1, "alpha": -1}}
	results, err := gf.Run(group, map[string][]float64{"nu": nus, "I": is})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("groups = %d", len(results))
	}
	for _, gr := range results {
		if gr.Err != nil {
			t.Fatalf("group %d: %v", gr.Key, gr.Err)
		}
		p, _ := gr.Res.ParamByName("p")
		alpha, _ := gr.Res.ParamByName("alpha")
		want := truth[gr.Key]
		if !near(p, want[0], 0.05*want[0]+0.01) || !near(alpha, want[1], 0.1) {
			t.Fatalf("group %d: p=%g alpha=%g want %v", gr.Key, p, alpha, want)
		}
	}
}

func TestGroupedFitSkipsTinyGroups(t *testing.T) {
	m, _ := ParseModel("I ~ p * pow(nu, alpha)", []string{"nu"})
	group := []int64{1, 1, 1, 1, 1, 2}
	nus := []float64{0.12, 0.15, 0.16, 0.18, 0.12, 0.15}
	is := []float64{1, 1, 1, 1, 1, 1}
	gf := &GroupedFit{Model: m, Start: map[string]float64{"p": 1, "alpha": 0}}
	results, err := gf.Run(group, map[string][]float64{"nu": nus, "I": is})
	if err != nil {
		t.Fatal(err)
	}
	var g2 *GroupResult
	for i := range results {
		if results[i].Key == 2 {
			g2 = &results[i]
		}
	}
	if g2 == nil || g2.Err == nil {
		t.Fatal("group 2 with 1 row should error")
	}
	if !errors.Is(g2.Err, ErrTooFewObservations) {
		t.Fatalf("got %v", g2.Err)
	}
}

func TestGroupedFitResultsSorted(t *testing.T) {
	m, _ := ParseModel("y ~ a + b*x", []string{"x"})
	var group []int64
	var xs, ys []float64
	for src := int64(9); src >= 1; src-- {
		for i := 0; i < 5; i++ {
			group = append(group, src)
			x := float64(i)
			xs = append(xs, x)
			ys = append(ys, float64(src)+2*x)
		}
	}
	gf := &GroupedFit{Model: m}
	results, err := gf.Run(group, map[string][]float64{"x": xs, "y": ys})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Key <= results[i-1].Key {
			t.Fatal("results not sorted by key")
		}
	}
	// Each group's intercept should equal its key.
	for _, gr := range results {
		a, _ := gr.Res.ParamByName("a")
		if !near(a, float64(gr.Key), 1e-8) {
			t.Fatalf("group %d intercept %g", gr.Key, a)
		}
	}
}

// --- Prediction intervals ---

func TestPredictIntervalCoverage(t *testing.T) {
	// Empirical check: ~95% of held-out draws fall inside the 95% PI.
	m, _ := ParseModel("y ~ a + b*x", []string{"x"})
	rng := rand.New(rand.NewSource(5))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = 1 + 2*xs[i] + rng.NormFloat64()*0.5
	}
	res, err := m.Fit(map[string][]float64{"x": xs, "y": ys}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		x := rng.Float64() * 10
		yTrue := 1 + 2*x + rng.NormFloat64()*0.5
		pred, err := m.Predict(res, []float64{x}, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if yTrue >= pred.Lo && yTrue <= pred.Hi {
			inside++
		}
	}
	cov := float64(inside) / float64(trials)
	if cov < 0.92 || cov > 0.98 {
		t.Fatalf("coverage = %.3f, want ≈0.95", cov)
	}
}

// TestIntervalQuantileCacheBitIdentical: an evaluator that keeps the last
// Student-t quantile returns, over a run of estimates whose degrees of
// freedom and levels change from call to call and repeat, exactly the
// bounds of a fresh evaluator, which works the quantile out anew.
func TestIntervalQuantileCacheBitIdentical(t *testing.T) {
	m, _ := ParseModel("y ~ a * pow(x, b)", []string{"x"})
	f := Estimate{Params: []float64{2, -0.7}, Cov: [][]float64{{0.01, 0.002}, {0.002, 0.003}}, ResidualSE: 0.3}
	e := m.Evaluator()
	defer e.Release()
	for i, df := range []int{1, 1, 2, 30, 30, 7, 1, 200, 3, 3, 30, 2} {
		f.DF = df
		in := []float64{0.1 + float64(i)*0.37}
		level := []float64{0.95, 0.9, 0.95, 0.99}[i%4]
		yhat := m.Eval(f.Params, in)
		lo, hi := e.Interval(&f, in, yhat, level, 1.25)
		fresh, err := m.newEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		if wantLo, wantHi := fresh.Interval(&f, in, yhat, level, 1.25); lo != wantLo || hi != wantHi {
			t.Fatalf("call %d (df %d, level %g): [%v, %v], uncached [%v, %v]", i, df, level, lo, hi, wantLo, wantHi)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	m, _ := ParseModel("y ~ a + b*x", []string{"x"})
	res, err := m.Fit(map[string][]float64{
		"x": {1, 2, 3, 4}, "y": {1, 2, 3, 4},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(res, []float64{1, 2}, 0.95); err == nil {
		t.Fatal("want error for wrong input count")
	}
	if _, err := m.Predict(res, []float64{1}, 1.5); err == nil {
		t.Fatal("want error for bad level")
	}
}

func TestConfIntContainsTruthUsually(t *testing.T) {
	// Run many simulations; the 95% CI for the slope should contain the
	// true slope in roughly 95% of them.
	m, _ := ParseModel("y ~ a + b*x", []string{"x"})
	rng := rand.New(rand.NewSource(99))
	hits, trials := 0, 300
	for tr := 0; tr < trials; tr++ {
		n := 30
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 5
			ys[i] = 2 + 1.5*xs[i] + rng.NormFloat64()
		}
		res, err := m.Fit(map[string][]float64{"x": xs, "y": ys}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range res.ParamNames {
			if name != "b" {
				continue
			}
			lo, hi := res.ConfInt(i, 0.95)
			if lo <= 1.5 && 1.5 <= hi {
				hits++
			}
		}
	}
	rate := float64(hits) / float64(trials)
	if rate < 0.90 || rate > 0.99 {
		t.Fatalf("CI coverage = %.3f, want ≈0.95", rate)
	}
}

func TestSummaryRenders(t *testing.T) {
	m, _ := ParseModel("y ~ a + b*x", []string{"x"})
	res, err := m.Fit(map[string][]float64{
		"x": {1, 2, 3, 4, 5}, "y": {2.1, 4.2, 5.9, 8.1, 9.9},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{"Param", "Residual SE", "R²", "a", "b"} {
		if !contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// --- Property: OLS through the formula path equals matrix-path OLS ---

func TestFormulaOLSMatchesMatrixOLS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 8
			ys[i] = 0.5 + 1.2*xs[i] + rng.NormFloat64()*0.3
		}
		m, err := ParseModel("y ~ a + b*x", []string{"x"})
		if err != nil {
			return false
		}
		r1, err := m.Fit(map[string][]float64{"x": xs, "y": ys}, nil, nil)
		if err != nil {
			return false
		}
		x, names := PolynomialDesign(xs, 1)
		r2, err := OLS(x, ys, names, true)
		if err != nil {
			return false
		}
		a1, _ := r1.ParamByName("a")
		b1, _ := r1.ParamByName("b")
		return near(a1, r2.Params[0], 1e-8) && near(b1, r2.Params[1], 1e-8) &&
			near(r1.ResidualSE, r2.ResidualSE, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
