package exec

import (
	"errors"
	"fmt"
	"math"

	"datalaws/internal/expr"
)

// kernelFn is a compiled expression: it evaluates over the physical rows
// listed in sel (which must be a subset of [0, b.N)), returning a vector of
// physical length b.N whose entries outside sel are unspecified. Identifier
// resolution happens once at compile time, so evaluation performs no map
// lookups; scalar semantics (NULL propagation, coercions, errors) are shared
// with the row evaluator through expr.ApplyBinary and friends.
type kernelFn func(b *Batch, sel []int) (*Vector, error)

// compileKernel lowers an expression into a vector kernel against the given
// column layout. Identifiers and functions are resolved eagerly, so an
// ambiguous or unknown column or an unknown function fails here — at plan
// time — rather than on the first row, with the row evaluator's text.
func compileKernel(e expr.Expr, cols []string) (kernelFn, error) {
	switch n := e.(type) {
	case *expr.Lit:
		v := n.Val
		var cached *Vector
		return func(b *Batch, _ []int) (*Vector, error) {
			if cached == nil || cached.Len() != b.N {
				cached = constVector(v, b.N)
			}
			return cached, nil
		}, nil
	case *expr.Ident:
		idx, err := ResolveColumn(cols, n.Name)
		if errors.Is(err, ErrAmbiguous) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("expr: unknown identifier %q", n.Name)
		}
		return func(b *Batch, _ []int) (*Vector, error) {
			return b.Cols[idx], nil
		}, nil
	case *expr.Unary:
		return compileUnaryKernel(n, cols)
	case *expr.Binary:
		if n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return compileLogicalKernel(n, cols)
		}
		lk, err := compileKernel(n.L, cols)
		if err != nil {
			return nil, err
		}
		rk, err := compileKernel(n.R, cols)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(b *Batch, sel []int) (*Vector, error) {
			l, err := lk(b, sel)
			if err != nil {
				return nil, err
			}
			r, err := rk(b, sel)
			if err != nil {
				return nil, err
			}
			return evalBinaryVec(op, l, r, b.N, sel)
		}, nil
	case *expr.Call:
		return compileCallKernel(n, cols)
	case *expr.IsNullExpr:
		ck, err := compileKernel(n.X, cols)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(b *Batch, sel []int) (*Vector, error) {
			c, err := ck(b, sel)
			if err != nil {
				return nil, err
			}
			out := &Vector{Kind: expr.KindBool, B: make([]bool, b.N)}
			for _, i := range sel {
				out.B[i] = c.IsNull(i) != negate
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T", e)
}

// constVector materializes a literal as a broadcast vector of length n.
func constVector(v expr.Value, n int) *Vector {
	switch v.K {
	case expr.KindInt:
		out := &Vector{Kind: expr.KindInt, I: make([]int64, n)}
		for i := range out.I {
			out.I[i] = v.I
		}
		return out
	case expr.KindFloat:
		out := &Vector{Kind: expr.KindFloat, F: make([]float64, n)}
		for i := range out.F {
			out.F[i] = v.F
		}
		return out
	case expr.KindString:
		out := &Vector{Kind: expr.KindString, S: make([]string, n)}
		for i := range out.S {
			out.S[i] = v.S
		}
		return out
	case expr.KindBool:
		out := &Vector{Kind: expr.KindBool, B: make([]bool, n)}
		for i := range out.B {
			out.B[i] = v.B
		}
		return out
	}
	return newNullVector(n)
}

// truth coerces entry i to SQL boolean: (value, isNull, error). A non-NULL
// entry of a bool vector is read directly; only operands with no bool
// representation (int and float truthiness, any-vectors) are boxed.
func truth(v *Vector, i int) (bool, bool, error) {
	if v.Kind == expr.KindBool && (v.Null == nil || !v.Null[i]) {
		return v.B[i], false, nil
	}
	if v.IsNull(i) {
		return false, true, nil
	}
	t, err := v.Value(i).AsBool()
	return t, false, err
}

func compileUnaryKernel(n *expr.Unary, cols []string) (kernelFn, error) {
	ck, err := compileKernel(n.X, cols)
	if err != nil {
		return nil, err
	}
	op := n.Op
	return func(b *Batch, sel []int) (*Vector, error) {
		c, err := ck(b, sel)
		if err != nil {
			return nil, err
		}
		nn := b.N
		if op == expr.OpNot {
			out := &Vector{Kind: expr.KindBool, B: make([]bool, nn)}
			for _, i := range sel {
				t, isN, err := truth(c, i)
				if err != nil {
					return nil, err
				}
				if isN {
					out.setNull(i, nn)
					continue
				}
				out.B[i] = !t
			}
			return out, nil
		}
		// OpNeg fast paths: typed numeric vectors negate in bulk.
		switch c.Kind {
		case expr.KindInt:
			out := &Vector{Kind: expr.KindInt, I: make([]int64, nn), Null: c.Null}
			for _, i := range sel {
				out.I[i] = -c.I[i]
			}
			return out, nil
		case expr.KindFloat:
			out := &Vector{Kind: expr.KindFloat, F: make([]float64, nn), Null: c.Null}
			for _, i := range sel {
				out.F[i] = -c.F[i]
			}
			return out, nil
		}
		vals := make([]expr.Value, nn)
		for _, i := range sel {
			v, err := expr.ApplyUnary(op, c.Value(i))
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vectorFromValues(vals), nil
	}, nil
}

// compileLogicalKernel implements AND/OR with SQL three-valued logic and
// row-engine-compatible short-circuiting: the right operand is evaluated
// only for rows the left operand does not decide, so side conditions like
// "x <> 0 AND 1/x > 2" never divide by zero on excluded rows.
func compileLogicalKernel(n *expr.Binary, cols []string) (kernelFn, error) {
	lk, err := compileKernel(n.L, cols)
	if err != nil {
		return nil, err
	}
	rk, err := compileKernel(n.R, cols)
	if err != nil {
		return nil, err
	}
	isAnd := n.Op == expr.OpAnd
	var needBuf []int
	return func(b *Batch, sel []int) (*Vector, error) {
		lv, err := lk(b, sel)
		if err != nil {
			return nil, err
		}
		nn := b.N
		out := &Vector{Kind: expr.KindBool, B: make([]bool, nn)}
		need := needBuf[:0]
		for _, i := range sel {
			t, isN, err := truth(lv, i)
			if err != nil {
				return nil, err
			}
			if !isN {
				if isAnd && !t {
					continue // FALSE AND x = FALSE
				}
				if !isAnd && t {
					out.B[i] = true // TRUE OR x = TRUE
					continue
				}
			}
			need = append(need, i)
		}
		needBuf = need
		if len(need) > 0 {
			rv, err := rk(b, need)
			if err != nil {
				return nil, err
			}
			for _, i := range need {
				_, lN, _ := truth(lv, i)
				rt, rN, err := truth(rv, i)
				if err != nil {
					return nil, err
				}
				if isAnd {
					switch {
					case !rN && !rt:
						// any FALSE decides AND, even against NULL
					case lN || rN:
						out.setNull(i, nn)
					default:
						out.B[i] = true // l TRUE (it reached here), r TRUE
					}
				} else {
					switch {
					case !rN && rt:
						out.B[i] = true // any TRUE decides OR
					case lN || rN:
						out.setNull(i, nn)
					default:
						// l FALSE, r FALSE
					}
				}
			}
		}
		return out, nil
	}, nil
}

// mergedNulls unions two null masks over physical length n (nil when neither
// operand can be NULL).
func mergedNulls(l, r *Vector, n int) []bool {
	if l.Null == nil && r.Null == nil {
		return nil
	}
	out := make([]bool, n)
	if l.Null != nil {
		copy(out, l.Null)
	}
	if r.Null != nil {
		for i, b := range r.Null {
			if b {
				out[i] = true
			}
		}
	}
	return out
}

// cmpF orders two floats with expr.Compare's NaN semantics (NaN sorts below
// every number).
func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	}
	return 0
}

func cmpHolds(op expr.Op, c int) bool {
	switch op {
	case expr.OpEq:
		return c == 0
	case expr.OpNe:
		return c != 0
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// evalBinaryVec dispatches a non-logical binary operator over two vectors,
// using typed bulk loops for the common numeric and string cases and the
// shared boxed scalar path for everything else.
func evalBinaryVec(op expr.Op, l, r *Vector, n int, sel []int) (*Vector, error) {
	if l.Kind == expr.KindNull || r.Kind == expr.KindNull {
		return newNullVector(n), nil
	}
	lInt, lFloat := l.Kind == expr.KindInt, l.Kind == expr.KindFloat
	rInt, rFloat := r.Kind == expr.KindInt, r.Kind == expr.KindFloat
	numeric := (lInt || lFloat) && (rInt || rFloat)

	switch op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		if !numeric {
			if l.Kind == expr.KindString && r.Kind == expr.KindString {
				return compareStringVec(op, l, r, n, sel), nil
			}
			return applyBinarySlow(op, l, r, n, sel)
		}
		out := &Vector{Kind: expr.KindBool, B: make([]bool, n), Null: mergedNulls(l, r, n)}
		nulls := out.Null
		if lInt && rInt {
			li, ri := l.I, r.I
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				c := 0
				switch {
				case li[i] < ri[i]:
					c = -1
				case li[i] > ri[i]:
					c = 1
				}
				out.B[i] = cmpHolds(op, c)
			}
			return out, nil
		}
		gl, gr := floatGetter(l), floatGetter(r)
		for _, i := range sel {
			if nulls != nil && nulls[i] {
				continue
			}
			out.B[i] = cmpHolds(op, cmpF(gl(i), gr(i)))
		}
		return out, nil
	}

	// Arithmetic.
	if lInt && rInt {
		switch op {
		case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpMod:
			out := &Vector{Kind: expr.KindInt, I: make([]int64, n), Null: mergedNulls(l, r, n)}
			nulls := out.Null
			li, ri := l.I, r.I
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				switch op {
				case expr.OpAdd:
					out.I[i] = li[i] + ri[i]
				case expr.OpSub:
					out.I[i] = li[i] - ri[i]
				case expr.OpMul:
					out.I[i] = li[i] * ri[i]
				default:
					if ri[i] == 0 {
						return nil, fmt.Errorf("expr: integer modulo by zero")
					}
					out.I[i] = li[i] % ri[i]
				}
			}
			return out, nil
		}
	}
	if !numeric {
		return applyBinarySlow(op, l, r, n, sel)
	}
	out := &Vector{Kind: expr.KindFloat, F: make([]float64, n), Null: mergedNulls(l, r, n)}
	nulls := out.Null
	gl, gr := floatGetter(l), floatGetter(r)
	for _, i := range sel {
		if nulls != nil && nulls[i] {
			continue
		}
		lf, rf := gl(i), gr(i)
		switch op {
		case expr.OpAdd:
			out.F[i] = lf + rf
		case expr.OpSub:
			out.F[i] = lf - rf
		case expr.OpMul:
			out.F[i] = lf * rf
		case expr.OpDiv:
			if rf == 0 {
				return nil, fmt.Errorf("expr: division by zero")
			}
			out.F[i] = lf / rf
		case expr.OpMod:
			if rf == 0 {
				return nil, fmt.Errorf("expr: modulo by zero")
			}
			out.F[i] = math.Mod(lf, rf)
		case expr.OpPow:
			out.F[i] = math.Pow(lf, rf)
		default:
			return nil, fmt.Errorf("expr: bad binary op %s", op)
		}
	}
	return out, nil
}

// floatGetter returns a per-row float accessor for an int or float vector.
func floatGetter(v *Vector) func(i int) float64 {
	if v.Kind == expr.KindFloat {
		f := v.F
		return func(i int) float64 { return f[i] }
	}
	iv := v.I
	return func(i int) float64 { return float64(iv[i]) }
}

func compareStringVec(op expr.Op, l, r *Vector, n int, sel []int) *Vector {
	out := &Vector{Kind: expr.KindBool, B: make([]bool, n), Null: mergedNulls(l, r, n)}
	nulls := out.Null
	for _, i := range sel {
		if nulls != nil && nulls[i] {
			continue
		}
		c := 0
		switch {
		case l.S[i] < r.S[i]:
			c = -1
		case l.S[i] > r.S[i]:
			c = 1
		}
		out.B[i] = cmpHolds(op, c)
	}
	return out
}

// applyBinarySlow is the boxed fallback for operand-kind combinations with
// no bulk loop (bools in comparisons, strings in arithmetic, mixed-kind
// vectors); it delegates per row to the shared scalar semantics.
func applyBinarySlow(op expr.Op, l, r *Vector, n int, sel []int) (*Vector, error) {
	vals := make([]expr.Value, n)
	for _, i := range sel {
		v, err := expr.ApplyBinary(op, l.Value(i), r.Value(i))
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vectorFromValues(vals), nil
}

func compileCallKernel(n *expr.Call, cols []string) (kernelFn, error) {
	arity, fn, ok := expr.LookupBuiltin(n.Name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %q", n.Name)
	}
	if arity >= 0 && len(n.Args) != arity {
		return nil, fmt.Errorf("expr: %s expects %d args, got %d", n.Name, arity, len(n.Args))
	}
	if arity < 0 && len(n.Args) == 0 {
		return nil, fmt.Errorf("expr: %s expects at least one arg", n.Name)
	}
	argKs := make([]kernelFn, len(n.Args))
	for i, a := range n.Args {
		k, err := compileKernel(a, cols)
		if err != nil {
			return nil, err
		}
		argKs[i] = k
	}
	name := n.Name
	scratch := make([]float64, len(argKs))
	boxed := make([]expr.Value, len(argKs))
	return func(b *Batch, sel []int) (*Vector, error) {
		args := make([]*Vector, len(argKs))
		fast := true
		for j, k := range argKs {
			v, err := k(b, sel)
			if err != nil {
				return nil, err
			}
			args[j] = v
			if v.Kind != expr.KindInt && v.Kind != expr.KindFloat {
				fast = false
			}
		}
		nn := b.N
		if fast {
			out := &Vector{Kind: expr.KindFloat, F: make([]float64, nn)}
			getters := make([]func(int) float64, len(args))
			for j, v := range args {
				getters[j] = floatGetter(v)
				if v.Null != nil {
					out.Null = mergedNulls(v, out, nn)
				}
			}
			for _, i := range sel {
				if out.Null != nil && out.Null[i] {
					continue
				}
				for j, g := range getters {
					scratch[j] = g(i)
				}
				out.F[i] = fn(scratch)
			}
			return out, nil
		}
		vals := make([]expr.Value, nn)
		for _, i := range sel {
			for j, v := range args {
				boxed[j] = v.Value(i)
			}
			v, err := expr.ApplyCall(name, boxed)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vectorFromValues(vals), nil
	}, nil
}
