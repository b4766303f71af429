package expr

import (
	"fmt"
	"math"
)

// Env resolves identifier names to values during evaluation.
type Env interface {
	Lookup(name string) (Value, bool)
}

// MapEnv is an Env backed by a map.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}

// Eval evaluates e under env with SQL semantics: NULL propagates through
// arithmetic and comparison; AND/OR use three-valued logic collapsed to
// (value, isNull).
func Eval(e Expr, env Env) (Value, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Val, nil
	case *Ident:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return Value{}, fmt.Errorf("expr: unknown identifier %q", n.Name)
		}
		return v, nil
	case *Unary:
		return evalUnary(n, env)
	case *Binary:
		return evalBinary(n, env)
	case *Call:
		return evalCall(n, env)
	case *IsNullExpr:
		v, err := Eval(n.X, env)
		if err != nil {
			return Value{}, err
		}
		isNull := v.IsNull()
		if n.Negate {
			isNull = !isNull
		}
		return Bool(isNull), nil
	case *Param:
		return Value{}, fmt.Errorf("expr: unbound parameter $%d", n.Index)
	}
	return Value{}, fmt.Errorf("expr: cannot evaluate %T", e)
}

func evalUnary(n *Unary, env Env) (Value, error) {
	v, err := Eval(n.X, env)
	if err != nil {
		return Value{}, err
	}
	return ApplyUnary(n.Op, v)
}

// ApplyUnary applies OpNeg or OpNot to an already-evaluated operand with SQL
// semantics (NULL in, NULL out). It is shared by the tree-walking evaluator
// and the vectorized kernels, so both paths agree on coercions and errors.
func ApplyUnary(op Op, v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	switch op {
	case OpNeg:
		switch v.K {
		case KindInt:
			return Int(-v.I), nil
		default:
			f, err := v.AsFloat()
			if err != nil {
				return Value{}, err
			}
			return Float(-f), nil
		}
	case OpNot:
		b, err := v.AsBool()
		if err != nil {
			return Value{}, err
		}
		return Bool(!b), nil
	}
	return Value{}, fmt.Errorf("expr: bad unary op %s", op)
}

func evalBinary(n *Binary, env Env) (Value, error) {
	// Short-circuit logic with SQL three-valued semantics.
	if n.Op == OpAnd || n.Op == OpOr {
		l, err := Eval(n.L, env)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() {
			lb, err := l.AsBool()
			if err != nil {
				return Value{}, err
			}
			if n.Op == OpAnd && !lb {
				return Bool(false), nil
			}
			if n.Op == OpOr && lb {
				return Bool(true), nil
			}
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return Value{}, err
		}
		if r.IsNull() || l.IsNull() {
			// FALSE AND NULL = FALSE handled above; remaining combinations
			// involving NULL are NULL. A right operand that is no truth
			// value fails here as it does against a non-NULL left one.
			if !r.IsNull() {
				rb, err := r.AsBool()
				if err != nil {
					return Value{}, err
				}
				if n.Op == OpAnd && !rb {
					return Bool(false), nil
				}
				if n.Op == OpOr && rb {
					return Bool(true), nil
				}
			}
			return Null(), nil
		}
		rb, err := r.AsBool()
		if err != nil {
			return Value{}, err
		}
		return Bool(rb), nil
	}

	l, err := Eval(n.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return Value{}, err
	}
	return ApplyBinary(n.Op, l, r)
}

// ApplyBinary applies a comparison or arithmetic operator to two
// already-evaluated operands with SQL semantics: NULL propagates, and
// integer arithmetic stays integral except division and power. AND/OR
// short-circuit and are handled by the evaluator, not here. Like ApplyUnary,
// it is the single source of scalar semantics shared with vector kernels.
func ApplyBinary(op Op, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		c, err := Compare(l, r)
		if err != nil {
			return Value{}, err
		}
		switch op {
		case OpEq:
			return Bool(c == 0), nil
		case OpNe:
			return Bool(c != 0), nil
		case OpLt:
			return Bool(c < 0), nil
		case OpLe:
			return Bool(c <= 0), nil
		case OpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	}
	// Arithmetic. Integer ops stay integral except division and power.
	if l.K == KindInt && r.K == KindInt {
		switch op {
		case OpAdd:
			return Int(l.I + r.I), nil
		case OpSub:
			return Int(l.I - r.I), nil
		case OpMul:
			return Int(l.I * r.I), nil
		case OpMod:
			if r.I == 0 {
				return Value{}, fmt.Errorf("expr: integer modulo by zero")
			}
			return Int(l.I % r.I), nil
		}
	}
	lf, err := l.AsFloat()
	if err != nil {
		return Value{}, err
	}
	rf, err := r.AsFloat()
	if err != nil {
		return Value{}, err
	}
	switch op {
	case OpAdd:
		return Float(lf + rf), nil
	case OpSub:
		return Float(lf - rf), nil
	case OpMul:
		return Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return Value{}, fmt.Errorf("expr: division by zero")
		}
		return Float(lf / rf), nil
	case OpMod:
		if rf == 0 {
			return Value{}, fmt.Errorf("expr: modulo by zero")
		}
		return Float(math.Mod(lf, rf)), nil
	case OpPow:
		return Float(math.Pow(lf, rf)), nil
	}
	return Value{}, fmt.Errorf("expr: bad binary op %s", op)
}

// builtin is one built-in function: its float implementation and the number
// of arguments it expects (-1 means variadic, at least one). unary is the
// same function on a bare float64 when it takes one argument, so vector
// kernels call it without building an argument slice.
type builtin struct {
	arity int
	fn    func(args []float64) float64
	unary func(float64) float64
}

func unary(f func(float64) float64) builtin {
	return builtin{arity: 1, fn: func(a []float64) float64 { return f(a[0]) }, unary: f}
}

var builtins = map[string]builtin{
	"abs":   unary(math.Abs),
	"sqrt":  unary(math.Sqrt),
	"exp":   unary(math.Exp),
	"log":   unary(math.Log),
	"log2":  unary(math.Log2),
	"log10": unary(math.Log10),
	"pow":   {arity: 2, fn: func(a []float64) float64 { return math.Pow(a[0], a[1]) }},
	"sin":   unary(math.Sin),
	"cos":   unary(math.Cos),
	"tan":   unary(math.Tan),
	"atan":  unary(math.Atan),
	"floor": unary(math.Floor),
	"ceil":  unary(math.Ceil),
	"round": unary(math.Round),
	"sign": unary(func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}),
	"min": {arity: -1, fn: func(a []float64) float64 {
		m := a[0]
		for _, v := range a[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}},
	"max": {arity: -1, fn: func(a []float64) float64 {
		m := a[0]
		for _, v := range a[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}},
}

func evalCall(n *Call, env Env) (Value, error) {
	b, ok := builtins[n.Name]
	if !ok {
		return Value{}, fmt.Errorf("expr: unknown function %q", n.Name)
	}
	if b.arity >= 0 && len(n.Args) != b.arity {
		return Value{}, fmt.Errorf("expr: %s expects %d args, got %d", n.Name, b.arity, len(n.Args))
	}
	if b.arity < 0 && len(n.Args) == 0 {
		return Value{}, fmt.Errorf("expr: %s expects at least one arg", n.Name)
	}
	// Every argument is evaluated, as for a binary operator and in the
	// batch kernels, so an error in one is raised even when an earlier one
	// is NULL; the result is NULL as ApplyCall decides it.
	args := make([]float64, len(n.Args))
	null := false
	for i, a := range n.Args {
		v, err := Eval(a, env)
		if err != nil {
			return Value{}, err
		}
		if null = null || v.IsNull(); null {
			continue
		}
		f, err := v.AsFloat()
		if err != nil {
			return Value{}, err
		}
		args[i] = f
	}
	if null {
		return Null(), nil
	}
	return Float(b.fn(args)), nil
}

// LookupBuiltin exposes a built-in scalar function's float implementation
// and arity (-1 means variadic with at least one argument) so vectorized
// kernels can bind the function pointer once instead of resolving the name
// per row.
func LookupBuiltin(name string) (arity int, fn func([]float64) float64, ok bool) {
	b, ok := builtins[name]
	if !ok {
		return 0, nil, false
	}
	return b.arity, b.fn, true
}

// ApplyCall invokes a built-in over already-evaluated arguments with SQL
// semantics (any NULL argument yields NULL).
func ApplyCall(name string, args []Value) (Value, error) {
	b, ok := builtins[name]
	if !ok {
		return Value{}, fmt.Errorf("expr: unknown function %q", name)
	}
	if b.arity >= 0 && len(args) != b.arity {
		return Value{}, fmt.Errorf("expr: %s expects %d args, got %d", name, b.arity, len(args))
	}
	if b.arity < 0 && len(args) == 0 {
		return Value{}, fmt.Errorf("expr: %s expects at least one arg", name)
	}
	fargs := make([]float64, len(args))
	for i, v := range args {
		if v.IsNull() {
			return Null(), nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return Value{}, err
		}
		fargs[i] = f
	}
	return Float(b.fn(fargs)), nil
}
