package expr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// vecVars are the identifiers of the differential's random expressions: x
// and y bind as per-row vectors, z as a broadcast scalar.
var vecVars = []string{"x", "y", "z"}

// vecInputs are the values the variables draw from: NULL, NaN, ±0, ±Inf,
// subnormals and ordinary magnitudes. nil stands for NULL.
var vecInputs = []*float64{
	nil, fptr(math.NaN()), fptr(0), fptr(math.Copysign(0, -1)), fptr(math.Inf(1)), fptr(math.Inf(-1)),
	fptr(5e-324), fptr(1), fptr(-1), fptr(0.5), fptr(-2.5), fptr(3), fptr(1e300), fptr(-7.25e-3),
}

func fptr(f float64) *float64 { return &f }

// genVecExpr builds a random numeric expression of at most depth levels
// over every operator and builtin a vector kernel compiles. Literals are
// DOUBLE: the kernel computes in float64, as it does for the model formulas
// it serves, so integral arithmetic is outside its contract.
func genVecExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			lits := []float64{0, math.Copysign(0, -1), 1, 2, 0.5, -3, 1e-3}
			return &Lit{Val: Float(lits[rng.Intn(len(lits))])}
		}
		return &Ident{Name: vecVars[rng.Intn(len(vecVars))]}
	}
	switch rng.Intn(3) {
	case 0:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: genVecExpr(rng, depth-1), R: genVecExpr(rng, depth-1)}
	case 1:
		return &Unary{Op: OpNeg, X: genVecExpr(rng, depth-1)}
	}
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	name := names[rng.Intn(len(names))]
	n := builtins[name].arity
	if n < 0 {
		n = 1 + rng.Intn(3)
	}
	args := make([]Expr, n)
	for i := range args {
		args[i] = genVecExpr(rng, depth-1)
	}
	return &Call{Name: name, Args: args}
}

// applyEval evaluates e bottom-up through ApplyUnary, ApplyBinary and
// ApplyCall, the scalar semantics the executor's batch kernels share with
// Eval.
func applyEval(e Expr, env MapEnv) (Value, error) {
	switch n := e.(type) {
	case *Unary:
		x, err := applyEval(n.X, env)
		if err != nil {
			return Value{}, err
		}
		return ApplyUnary(n.Op, x)
	case *Binary:
		l, err := applyEval(n.L, env)
		if err != nil {
			return Value{}, err
		}
		r, err := applyEval(n.R, env)
		if err != nil {
			return Value{}, err
		}
		return ApplyBinary(n.Op, l, r)
	case *Call:
		args := make([]Value, len(n.Args))
		for i, a := range n.Args {
			v, err := applyEval(a, env)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return ApplyCall(n.Name, args)
	}
	return Eval(e, env)
}

// TestCompileVecMatchesEval compares a compiled vector kernel with Eval,
// bit for bit, over random expressions and random rows. Eval's SQL
// semantics bound the comparison: a row with a NULL input must evaluate to
// NULL (the executor masks such rows around a kernel), and a row where Eval
// reports division or modulo by zero is one where the kernel yields the
// IEEE result instead (Inf or NaN) by design. Every other row must agree to
// the bit, except that any NaN matches any NaN: Go leaves the sign and
// payload of a NaN result unspecified (the compiler may swap the operands of
// a commutative operation), and SQL cannot tell NaNs apart. The bottom-up
// Apply* evaluation must agree with Eval on every row, errors included.
func TestCompileVecMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	index := map[string]int{"x": 0, "y": 1, "z": 2}
	compared := 0
	for iter := 0; iter < 400; iter++ {
		e := genVecExpr(rng, 4)
		kern, err := CompileVec(e, index)
		if err != nil {
			t.Fatalf("%s: compile: %v", e, err)
		}
		// Two batch sizes, so the kernels' scratch buffers grow between
		// calls.
		for _, n := range []int{8, 64} {
			rows := make([][3]*float64, n)
			xs, ys := make([]float64, n), make([]float64, n)
			z := vecInputs[rng.Intn(len(vecInputs))]
			for i := range rows {
				rows[i] = [3]*float64{vecInputs[rng.Intn(len(vecInputs))], vecInputs[rng.Intn(len(vecInputs))], z}
				xs[i], ys[i] = deref(rows[i][0]), deref(rows[i][1])
			}
			out := make([]float64, n)
			kern(n, []VecArg{{Vec: xs}, {Vec: ys}, {Scalar: deref(z)}}, out)
			for i, r := range rows {
				env := MapEnv{}
				for v, p := range r {
					env[vecVars[v]] = Null()
					if p != nil {
						env[vecVars[v]] = Float(*p)
					}
				}
				want, wantErr := Eval(e, env)
				got, gotErr := applyEval(e, env)
				if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || wantErr == nil && !sameBits(want, got) {
					t.Fatalf("%s at %v: Eval %v (%v), Apply* %v (%v)", e, env, want, wantErr, got, gotErr)
				}
				switch {
				case wantErr != nil:
					if msg := wantErr.Error(); !strings.Contains(msg, "division by zero") && !strings.Contains(msg, "modulo by zero") {
						t.Fatalf("%s at %v: %v", e, env, wantErr)
					}
				case r[0] == nil && mentions(e, "x") || r[1] == nil && mentions(e, "y") || r[2] == nil && mentions(e, "z"):
					if !want.IsNull() {
						t.Fatalf("%s at %v: %v, want NULL", e, env, want)
					}
				default:
					f, err := want.AsFloat()
					if err != nil {
						t.Fatalf("%s at %v: %v", e, env, err)
					}
					if !sameFloat(f, out[i]) {
						t.Fatalf("%s at %v: Eval %v (%#x), kernel %v (%#x)", e, env, f, math.Float64bits(f), out[i], math.Float64bits(out[i]))
					}
					compared++
				}
			}
		}
	}
	if compared < 2000 {
		t.Fatalf("only %d rows compared: the generator rarely avoids NULL inputs", compared)
	}
}

func deref(p *float64) float64 {
	if p == nil {
		return 0 // a NULL's slot: the executor masks the row
	}
	return *p
}

func mentions(e Expr, name string) bool {
	for _, v := range Vars(e) {
		if v == name {
			return true
		}
	}
	return false
}

// sameFloat compares bit for bit, any NaN matching any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameBits(a, b Value) bool {
	return a.K == b.K && (a.K != KindFloat && a.String() == b.String() || sameFloat(a.F, b.F))
}

// TestCompileVecErrors pins that an expression with no vector kernel fails
// to compile with the text Eval gives when it evaluates it.
func TestCompileVecErrors(t *testing.T) {
	index := map[string]int{"x": 0}
	env := MapEnv{"x": Float(1)}
	for _, src := range []string{"nope(x)", "sqrt(x, x)", "pow(x)", "min()"} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, cerr := CompileVec(e, index)
		_, eerr := Eval(e, env)
		if cerr == nil || eerr == nil || cerr.Error() != eerr.Error() {
			t.Fatalf("%s: CompileVec %v, Eval %v", src, cerr, eerr)
		}
		var args []Value
		for range e.(*Call).Args {
			args = append(args, Float(1))
		}
		if _, aerr := ApplyCall(e.(*Call).Name, args); aerr == nil || aerr.Error() != eerr.Error() {
			t.Fatalf("%s: ApplyCall %v, Eval %v", src, aerr, eerr)
		}
	}
	for _, src := range []string{"x > 1", "NOT x", "x IS NULL", "y + 1", "'a'"} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileVec(e, index); err == nil {
			t.Fatalf("%s: compiled", src)
		}
	}
}
