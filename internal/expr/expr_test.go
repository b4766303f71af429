package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func evalF(t *testing.T, src string, env map[string]float64) float64 {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	got, err := evalAt(e, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return got
}

// evalAt evaluates e with Eval, binding vars as DOUBLE values: the
// interpreter is the oracle the compiled and derived forms are checked
// against.
func evalAt(e Expr, vars map[string]float64) (float64, error) {
	env := MapEnv{}
	for k, v := range vars {
		env[k] = Float(v)
	}
	v, err := Eval(e, env)
	if err != nil {
		return 0, err
	}
	return v.AsFloat()
}

func TestParseArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"2 ^ 3 ^ 2", 512}, // right associative
		{"-2 ^ 2", -4},     // unary binds looser than ^
		{"10 / 4", 2.5},
		{"7 % 3", 1},
		{"2 * -3", -6},
		{"1.5e2 + .5", 150.5},
		{"pow(2, 10)", 1024},
		{"sqrt(16) + abs(-3)", 7},
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"log(exp(2))", 2},
		{"round(2.6)", 3},
	}
	for _, c := range cases {
		if got := evalF(t, c.src, nil); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q = %g, want %g", c.src, got, c.want)
		}
	}
}

func TestParseVariables(t *testing.T) {
	env := map[string]float64{"x": 3, "y": 4, "nu": 0.14, "alpha": -0.7, "p": 0.06}
	if got := evalF(t, "x*x + y*y", env); got != 25 {
		t.Fatalf("got %g", got)
	}
	// The paper's model: I = p * nu^alpha.
	want := 0.06 * math.Pow(0.14, -0.7)
	if got := evalF(t, "p * pow(nu, alpha)", env); math.Abs(got-want) > 1e-15 {
		t.Fatalf("power law = %g, want %g", got, want)
	}
	if got := evalF(t, "p * nu ^ alpha", env); math.Abs(got-want) > 1e-15 {
		t.Fatalf("power law via ^ = %g, want %g", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 +", "(, )", "foo(", "1 2", "'unterminated", "@x", "pow(1)",
		"x BETWEEN 1", "x IS 3",
	}
	for _, src := range bad {
		e, err := Parse(src)
		if err == nil {
			// Arity errors surface at eval time for function calls.
			if _, everr := evalAt(e, map[string]float64{"x": 1}); everr == nil {
				t.Errorf("Parse(%q): want error", src)
			}
		}
	}
}

func TestEvalTyped(t *testing.T) {
	env := MapEnv{
		"name": Str("lofar"),
		"n":    Int(42),
		"f":    Float(1.5),
		"ok":   Bool(true),
		"miss": Null(),
	}
	cases := []struct {
		src  string
		want Value
	}{
		{"n = 42", Bool(true)},
		{"n <> 42", Bool(false)},
		{"name = 'lofar'", Bool(true)},
		{"name = 'other'", Bool(false)},
		{"n + 1", Int(43)},
		{"n * 2", Int(84)},
		{"n / 4", Float(10.5)},
		{"f < 2 AND ok", Bool(true)},
		{"f > 2 OR ok", Bool(true)},
		{"NOT ok", Bool(false)},
		{"miss IS NULL", Bool(true)},
		{"miss IS NOT NULL", Bool(false)},
		{"n IS NULL", Bool(false)},
		{"miss + 1", Null()},
		{"miss = 1", Null()},
		{"FALSE AND miss", Bool(false)},
		{"TRUE OR miss", Bool(true)},
		{"TRUE AND miss", Null()},
		{"n BETWEEN 40 AND 45", Bool(true)},
		{"n BETWEEN 43 AND 45", Bool(false)},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := Eval(e, env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if !Equal(got, c.want) || got.IsNull() != c.want.IsNull() {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := MapEnv{"s": Str("a"), "n": Int(1)}
	for _, src := range []string{"unknown + 1", "1/0", "n % 0", "s + 1", "s < 1"} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Eval(e, env); err == nil {
			t.Errorf("Eval(%q): want error", src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	e, err := Parse("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(e, MapEnv{})
	if err != nil || v.S != "it's" {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestVars(t *testing.T) {
	e := MustParse("p * pow(nu, alpha) + b")
	got := Vars(e)
	want := []string{"alpha", "b", "nu", "p"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestSubstitute(t *testing.T) {
	e := MustParse("a + b*2")
	s := Substitute(e, map[string]Expr{"a": MustParse("10"), "b": MustParse("x")})
	got, err := evalAt(s, map[string]float64{"x": 3})
	if err != nil || got != 16 {
		t.Fatalf("Substitute eval = %g, %v", got, err)
	}
}

func TestDiffBasics(t *testing.T) {
	cases := []struct {
		src, wrt string
		at       map[string]float64
		want     float64
	}{
		{"x*x", "x", map[string]float64{"x": 3}, 6},
		{"x^3", "x", map[string]float64{"x": 2}, 12},
		{"2*x + 7", "x", map[string]float64{"x": 5}, 2},
		{"y", "x", map[string]float64{"x": 1, "y": 2}, 0},
		{"exp(2*x)", "x", map[string]float64{"x": 0}, 2},
		{"log(x)", "x", map[string]float64{"x": 4}, 0.25},
		{"sqrt(x)", "x", map[string]float64{"x": 4}, 0.25},
		{"sin(x)", "x", map[string]float64{"x": 0}, 1},
		{"cos(x)", "x", map[string]float64{"x": 0}, 0},
		{"1/x", "x", map[string]float64{"x": 2}, -0.25},
		{"pow(x, 2)", "x", map[string]float64{"x": 5}, 10},
	}
	for _, c := range cases {
		e := MustParse(c.src)
		d, err := Diff(e, c.wrt)
		if err != nil {
			t.Fatalf("Diff(%q): %v", c.src, err)
		}
		got, err := evalAt(d, c.at)
		if err != nil {
			t.Fatalf("eval d(%q)/d%s = %v: %v", c.src, c.wrt, d, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("d(%q)/d%s at %v = %g, want %g (deriv %v)", c.src, c.wrt, c.at, got, c.want, d)
		}
	}
}

func TestDiffPowerLawModel(t *testing.T) {
	// The LOFAR model I = p·ν^α: ∂I/∂p = ν^α, ∂I/∂α = p·ν^α·ln(ν).
	e := MustParse("p * pow(nu, alpha)")
	env := map[string]float64{"p": 0.06, "nu": 0.14, "alpha": -0.7}
	dp, err := Diff(e, "p")
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalAt(dp, env)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.14, -0.7)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("dI/dp = %g, want %g", got, want)
	}
	da, err := Diff(e, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	got, err = evalAt(da, env)
	if err != nil {
		t.Fatal(err)
	}
	want = 0.06 * math.Pow(0.14, -0.7) * math.Log(0.14)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("dI/dalpha = %g, want %g", got, want)
	}
}

func TestDiffMatchesNumericProperty(t *testing.T) {
	exprs := []string{
		"x*x + 3*x", "exp(x)", "x^3 - 2*x", "sin(x)*cos(x)", "log(x+2)",
		"sqrt(x+1)", "x / (x + 1)", "pow(x+1, 2.5)",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := exprs[rng.Intn(len(exprs))]
		x := rng.Float64()*4 + 0.1
		e := MustParse(src)
		d, err := Diff(e, "x")
		if err != nil {
			return false
		}
		envAt := func(xx float64) map[string]float64 { return map[string]float64{"x": xx} }
		analytic, err := evalAt(d, envAt(x))
		if err != nil {
			return false
		}
		const h = 1e-6
		fp, err1 := evalAt(e, envAt(x+h))
		fm, err2 := evalAt(e, envAt(x-h))
		if err1 != nil || err2 != nil {
			return false
		}
		numeric := (fp - fm) / (2 * h)
		return math.Abs(analytic-numeric) <= 1e-4*(1+math.Abs(numeric))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSimplify(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x + 0", "x"},
		{"0 + x", "x"},
		{"x * 1", "x"},
		{"x * 0", "0"},
		{"x ^ 1", "x"},
		{"x ^ 0", "1"},
		{"2 * 3", "6"},
		{"x - 0", "x"},
		{"x / 1", "x"},
	}
	for _, c := range cases {
		got := Simplify(MustParse(c.src)).String()
		if got != c.want {
			t.Errorf("Simplify(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestCompileUnbound(t *testing.T) {
	if _, err := CompileVec(MustParse("z + 1"), map[string]int{"x": 0}); err == nil {
		t.Fatal("want error for unbound identifier")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(1), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Fatal("want error comparing string to int")
	}
	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Fatal("want error comparing NULL")
	}
}

func TestValueString(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(7), "7"},
		{Float(1.5), "1.5"},
		{Str("hi"), `"hi"`},
		{Bool(true), "TRUE"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.K, got, c.want)
		}
	}
}

// TestLitStringReadsBack: a rendered literal re-parses to the same value.
// String literals used to render Go-quoted, so a backslash came back
// doubled when a WAL record or models.json predicate was re-parsed.
func TestLitStringReadsBack(t *testing.T) {
	s := Str(`O'Brien\x "q"`)
	src := (&Binary{Op: OpEq, L: &Ident{Name: "label"}, R: &Lit{Val: s}}).String()
	r, err := Parse(src)
	if err != nil {
		t.Fatalf("reparse %s: %v", src, err)
	}
	if got := r.(*Binary).R.(*Lit).Val; got != s {
		t.Fatalf("string literal %q came back as %q (from %s)", s.S, got.S, src)
	}
	// A negative literal under a minus (a bound parameter can produce one)
	// must not render "--", a comment to the SQL lexer.
	e := &Binary{Op: OpSub, L: &Ident{Name: "x"}, R: &Unary{Op: OpNeg, X: &Lit{Val: Float(-1.5)}}}
	if strings.Contains(e.String(), "--") {
		t.Fatalf("%s contains a SQL comment", e.String())
	}
	r, err = Parse(e.String())
	if err != nil {
		t.Fatalf("reparse %s: %v", e.String(), err)
	}
	env := MapEnv{"x": Float(10)}
	want, _ := Eval(e, env)
	if got, err := Eval(r, env); err != nil || got != want {
		t.Fatalf("%s evaluates to %v (%v) after a reparse, want %v", e.String(), got, err, want)
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// Rendering then reparsing must preserve semantics.
	srcs := []string{"1 + 2 * x", "p * pow(nu, alpha)", "NOT (a AND b)", "x IS NULL", "-(x + 1) ^ 2", "température * 2"}
	for _, src := range srcs {
		e := MustParse(src)
		r, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", e.String(), src, err)
		}
		if !strings.EqualFold(r.String(), e.String()) {
			t.Errorf("round trip %q → %q → %q", src, e.String(), r.String())
		}
	}
}

// TestLexUTF8Names: a name is read rune by rune, so any UTF-8 letter
// spells one, invalid UTF-8 is refused, and only ASCII letters spell a
// reserved word (the dotless ı upper-cases to I, but "ın" is a name).
func TestLexUTF8Names(t *testing.T) {
	for _, src := range []string{"température", "ın", "_x2é"} {
		toks, err := formula.Lex(src)
		if err != nil || len(toks) != 2 || toks[0].Kind != TokIdent || toks[0].Text != src {
			t.Errorf("Lex(%q) = %v, %v; want it as one name", src, toks, err)
		}
	}
	for _, src := range []string{"\xc4", "x + \xc4", "©"} {
		if toks, err := formula.Lex(src); err == nil {
			t.Errorf("Lex(%q) = %v, want an error", src, toks)
		}
	}
	if _, err := Parse("x ın (1, 2)"); err == nil {
		t.Error(`Parse("x ın (1, 2)") read ın as the keyword IN`)
	}
}

// TestBindParams binds placeholders in every node kind: each Param becomes
// the literal at its index, subtrees without one are shared, not copied,
// and an index past the bound arguments fails.
func TestBindParams(t *testing.T) {
	x := &Ident{Name: "x"}
	plain := &Binary{Op: OpMul, L: x, R: &Lit{Val: Float(2)}}
	e := &Binary{Op: OpAnd,
		L: &Binary{Op: OpEq, L: &Call{Name: "pow", Args: []Expr{x, &Param{Index: 2}}}, R: &Unary{Op: OpNeg, X: &Param{Index: 1}}},
		R: &Binary{Op: OpOr, L: &IsNullExpr{X: &Param{Index: 3}, Negate: true}, R: plain},
	}
	if got := MaxParam(e); got != 3 {
		t.Fatalf("MaxParam = %d, want 3", got)
	}
	if got := MaxParam(plain); got != 0 {
		t.Fatalf("MaxParam(%s) = %d, want 0", plain, got)
	}
	if s := e.String(); !strings.Contains(s, "$2") || !strings.Contains(s, "$3") {
		t.Fatalf("String = %s", s)
	}
	bound, err := BindParams(e, []Value{Float(-4), Float(2), Null()})
	if err != nil {
		t.Fatal(err)
	}
	if MaxParam(bound) != 0 {
		t.Fatalf("bound expression %s keeps a placeholder", bound)
	}
	if bound.(*Binary).R.(*Binary).R != plain {
		t.Fatal("a subtree without placeholders was copied")
	}
	// pow(x, 2) = -(-4) is TRUE at x = 2, and NULL IS NOT NULL is FALSE.
	v, err := Eval(bound.(*Binary).L, MapEnv{"x": Float(2)})
	if err != nil || !v.B {
		t.Fatalf("%s = %v, %v; want TRUE", bound.(*Binary).L, v, err)
	}
	if v, err := Eval(bound.(*Binary).R.(*Binary).L, MapEnv{}); err != nil || v.B {
		t.Fatalf("NULL IS NOT NULL = %v, %v", v, err)
	}
	if same, err := BindParams(plain, nil); err != nil || same != plain {
		t.Fatalf("binding a placeholder-free expression: %v, %v", same, err)
	}
	if _, err := BindParams(e, []Value{Float(1)}); err == nil || !strings.Contains(err.Error(), "$2 out of range") {
		t.Fatalf("err = %v, want $2 out of range", err)
	}
	if _, err := Eval(&Param{Index: 1}, MapEnv{}); err == nil {
		t.Fatal("evaluated an unbound parameter")
	}
}
