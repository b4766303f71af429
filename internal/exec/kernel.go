package exec

import (
	"errors"
	"fmt"
	"math"

	"datalaws/internal/expr"
)

// kernel is a compiled expression: eval evaluates it over the physical
// rows listed in sel (which must be a subset of [0, b.N)), returning a
// vector of physical length b.N whose entries outside sel are unspecified.
// Identifier resolution happens once at compile time, so evaluation
// performs no map lookups; scalar semantics (NULL propagation, coercions,
// errors) are shared with the row evaluator through expr.ApplyBinary and
// friends.
type kernel interface {
	eval(b *Batch, sel []int) (*Vector, error)
}

// kernelFunc is a kernel written as a function.
type kernelFunc func(b *Batch, sel []int) (*Vector, error)

func (f kernelFunc) eval(b *Batch, sel []int) (*Vector, error) { return f(b, sel) }

// colKernel is a column reference: the batch's column at that index, read
// in place. It is a plain integer, so compiling one allocates nothing (Go
// boxes small integers into an interface without allocating).
type colKernel int

func (c colKernel) eval(b *Batch, _ []int) (*Vector, error) { return b.Cols[c], nil }

// litKernel is a literal, broadcast into a vector it keeps for batches of
// the same length.
type litKernel struct {
	v      expr.Value
	cached *Vector
}

func (l *litKernel) eval(b *Batch, _ []int) (*Vector, error) {
	if l.cached == nil || l.cached.Len() != b.N {
		l.cached = constVector(l.v, b.N)
	}
	return l.cached, nil
}

// compileKernel lowers an expression into a vector kernel against the given
// column layout. Identifiers and functions are resolved eagerly, so an
// ambiguous or unknown column or an unknown function fails here — at plan
// time — rather than on the first row, with the row evaluator's text. A
// boolean compiles to its selection tree (boolKernel).
func compileKernel(e expr.Expr, cols []string) (kernel, error) {
	switch n := e.(type) {
	case *expr.Lit:
		return &litKernel{v: n.Val}, nil
	case *expr.Ident:
		idx, err := ResolveColumn(cols, n.Name)
		if errors.Is(err, ErrAmbiguous) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("expr: unknown identifier %q", n.Name)
		}
		return colKernel(idx), nil
	case *expr.Unary:
		if n.Op == expr.OpNot {
			return boolKernel(e, cols)
		}
		return compileNegKernel(n, cols)
	case *expr.IsNullExpr:
		return boolKernel(e, cols)
	case *expr.Binary:
		switch n.Op {
		case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod, expr.OpPow:
		default:
			return boolKernel(e, cols)
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
		return kernelFunc(func(b *Batch, sel []int) (*Vector, error) {
			l, err := lk.eval(b, sel)
			if err != nil {
				return nil, err
			}
			r, err := rk.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return evalBinaryVec(op, l, r, b.N, sel)
		}), nil
	case *expr.Call:
		return compileCallKernel(n, cols)
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

// compileNegKernel compiles a negation; NOT is a boolean.
func compileNegKernel(n *expr.Unary, cols []string) (kernel, error) {
	ck, err := compileKernel(n.X, cols)
	if err != nil {
		return nil, err
	}
	return kernelFunc(func(b *Batch, sel []int) (*Vector, error) {
		c, err := ck.eval(b, sel)
		if err != nil {
			return nil, err
		}
		nn := b.N
		// Typed numeric vectors negate in bulk.
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
		return boxedRows(nn, sel, func(i int) (expr.Value, error) {
			return expr.ApplyUnary(expr.OpNeg, c.Value(i))
		})
	}), nil
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

// evalBinaryVec applies an arithmetic operator over two vectors, using
// typed bulk loops for numeric operands and the shared boxed scalar path
// for everything else.
func evalBinaryVec(op expr.Op, l, r *Vector, n int, sel []int) (*Vector, error) {
	if l.Kind == expr.KindNull || r.Kind == expr.KindNull {
		return newNullVector(n), nil
	}
	lInt, lFloat := l.Kind == expr.KindInt, l.Kind == expr.KindFloat
	rInt, rFloat := r.Kind == expr.KindInt, r.Kind == expr.KindFloat
	numeric := (lInt || lFloat) && (rInt || rFloat)

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
		return boxedRows(n, sel, func(i int) (expr.Value, error) {
			return expr.ApplyBinary(op, l.Value(i), r.Value(i))
		})
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

// boxedRows is the boxed path of every kernel with no typed loop for its
// operands' kinds (strings and bools in arithmetic, mixed-kind vectors): it
// evaluates row i of sel through f, the scalar semantics the row evaluator
// shares, and collects the values.
func boxedRows(n int, sel []int, f func(i int) (expr.Value, error)) (*Vector, error) {
	vals := make([]expr.Value, n)
	for _, i := range sel {
		v, err := f(i)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vectorFromValues(vals), nil
}

func compileCallKernel(n *expr.Call, cols []string) (kernel, error) {
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
	argKs := make([]kernel, len(n.Args))
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
	return kernelFunc(func(b *Batch, sel []int) (*Vector, error) {
		args := make([]*Vector, len(argKs))
		fast := true
		for j, k := range argKs {
			v, err := k.eval(b, sel)
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
		return boxedRows(nn, sel, func(i int) (expr.Value, error) {
			for j, v := range args {
				boxed[j] = v.Value(i)
			}
			return expr.ApplyCall(name, boxed)
		})
	}), nil
}
