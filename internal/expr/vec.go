package expr

import (
	"fmt"
	"math"
)

// VecArg binds one identifier slot of a compiled vector kernel: either a
// full column (Vec non-nil) or a broadcast scalar applied to every row.
// Model scans bind input columns as vectors and fitted parameters as either
// scalars or per-row vectors, depending on how they enumerate groups.
type VecArg struct {
	Vec    []float64
	Scalar float64
}

// VecKernel evaluates a compiled numeric expression over rows [0, n) of its
// argument bindings, writing results into out[:n]. Kernels reuse internal
// scratch buffers between calls and are therefore not safe for concurrent
// use; compile one kernel per goroutine.
type VecKernel func(n int, args []VecArg, out []float64)

// CompileVec lowers a numeric expression into a vectorized kernel with every
// identifier pre-resolved to a slot of the args slice: one closure-tree walk
// per column slice, with no per-row call overhead or argument allocation.
// It is the one compiled form of a numeric expression; a single observation
// is a call with n = 1 and scalar arguments. Non-numeric constructs
// (comparisons, logic, IS NULL) do not compile; callers fall back to
// row-at-a-time evaluation.
func CompileVec(e Expr, index map[string]int) (VecKernel, error) {
	switch n := e.(type) {
	case *Lit:
		v, err := n.Val.AsFloat()
		if err != nil {
			return nil, err
		}
		return func(n int, _ []VecArg, out []float64) {
			for i := 0; i < n; i++ {
				out[i] = v
			}
		}, nil
	case *Ident:
		idx, ok := index[n.Name]
		if !ok {
			return nil, fmt.Errorf("expr: unbound identifier %q", n.Name)
		}
		return func(n int, args []VecArg, out []float64) {
			a := args[idx]
			if a.Vec != nil {
				copy(out[:n], a.Vec[:n])
				return
			}
			s := a.Scalar
			for i := 0; i < n; i++ {
				out[i] = s
			}
		}, nil
	case *Unary:
		if n.Op != OpNeg {
			return nil, fmt.Errorf("expr: operator %s not numeric", n.Op)
		}
		x, err := CompileVec(n.X, index)
		if err != nil {
			return nil, err
		}
		return func(n int, args []VecArg, out []float64) {
			x(n, args, out)
			for i := 0; i < n; i++ {
				out[i] = -out[i]
			}
		}, nil
	case *Binary:
		return compileVecBinary(n, index)
	case *Call:
		return compileVecCall(n, index)
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

func compileVecBinary(n *Binary, index map[string]int) (VecKernel, error) {
	l, err := CompileVec(n.L, index)
	if err != nil {
		return nil, err
	}
	r, err := CompileVec(n.R, index)
	if err != nil {
		return nil, err
	}
	var tmp []float64 // right-operand scratch, grown on demand
	combine := func(apply func(n int, out, t []float64)) VecKernel {
		return func(n int, args []VecArg, out []float64) {
			if cap(tmp) < n {
				tmp = make([]float64, n)
			}
			t := tmp[:n]
			l(n, args, out)
			r(n, args, t)
			apply(n, out, t)
		}
	}
	switch n.Op {
	case OpAdd:
		return combine(func(n int, out, t []float64) {
			for i := 0; i < n; i++ {
				out[i] += t[i]
			}
		}), nil
	case OpSub:
		return combine(func(n int, out, t []float64) {
			for i := 0; i < n; i++ {
				out[i] -= t[i]
			}
		}), nil
	case OpMul:
		return combine(func(n int, out, t []float64) {
			for i := 0; i < n; i++ {
				out[i] *= t[i]
			}
		}), nil
	case OpDiv:
		return combine(func(n int, out, t []float64) {
			for i := 0; i < n; i++ {
				out[i] /= t[i]
			}
		}), nil
	case OpMod:
		return combine(func(n int, out, t []float64) {
			for i := 0; i < n; i++ {
				out[i] = math.Mod(out[i], t[i])
			}
		}), nil
	case OpPow:
		return combine(func(n int, out, t []float64) {
			for i := 0; i < n; i++ {
				out[i] = math.Pow(out[i], t[i])
			}
		}), nil
	}
	return nil, fmt.Errorf("expr: operator %s not numeric", n.Op)
}

func compileVecCall(n *Call, index map[string]int) (VecKernel, error) {
	b, ok := builtins[n.Name]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %q", n.Name)
	}
	if b.arity >= 0 && len(n.Args) != b.arity {
		return nil, fmt.Errorf("expr: %s expects %d args, got %d", n.Name, b.arity, len(n.Args))
	}
	if b.arity < 0 && len(n.Args) == 0 {
		return nil, fmt.Errorf("expr: %s expects at least one arg", n.Name)
	}
	// pow lowers to the Pow operator kernel, avoiding per-row arg slices.
	if n.Name == "pow" && len(n.Args) == 2 {
		return compileVecBinary(&Binary{Op: OpPow, L: n.Args[0], R: n.Args[1]}, index)
	}
	argKs := make([]VecKernel, len(n.Args))
	for i, a := range n.Args {
		k, err := CompileVec(a, index)
		if err != nil {
			return nil, err
		}
		argKs[i] = k
	}
	if f := b.unary; f != nil {
		x := argKs[0]
		return func(n int, args []VecArg, out []float64) {
			x(n, args, out)
			for i := 0; i < n; i++ {
				out[i] = f(out[i])
			}
		}, nil
	}
	fn := b.fn
	var tmps [][]float64
	scratch := make([]float64, len(argKs))
	return func(n int, args []VecArg, out []float64) {
		if tmps == nil || cap(tmps[0]) < n {
			tmps = make([][]float64, len(argKs))
			for j := range tmps {
				tmps[j] = make([]float64, n)
			}
		}
		for j, k := range argKs {
			k(n, args, tmps[j][:n])
		}
		for i := 0; i < n; i++ {
			for j := range tmps {
				scratch[j] = tmps[j][i]
			}
			out[i] = fn(scratch)
		}
	}, nil
}
