package exec

import (
	"math"
	"slices"

	"datalaws/internal/expr"
)

// Every boolean runs as a tree of selection kernels, the only compiled
// form of AND, OR, NOT, IS [NOT] NULL and the comparisons. A node splits
// the rows it is given by the predicate's value: it returns the rows where
// it is TRUE and those where it is NULL, and the rest are FALSE. A WHERE
// keeps the TRUE rows; a boolean used as a value (a select-list item, a
// group key, an aggregate argument) writes both lists into a bool vector
// (boolKernel).
//
//   - A comparison is a leaf over its operands' value kernels; a literal
//     operand goes on the right (100 > k is k < 100). Two INT, DOUBLE or
//     string operands compare in one typed loop: INT against INT exactly,
//     any other numeric pair as doubles, so NaN and ±0 keep
//     expr.Compare's rules. Any other pair compares boxed through
//     expr.Compare, and fails where it does. A row that is NULL on either
//     side is NULL.
//   - An INT vector against an INT literal is a range test on the
//     integers. Over a sorted run (a window of a sealed chunk whose zone
//     map says Sorted) and a contiguous selection it keeps one run of rows,
//     or two for <>: two binary searches find it, so the leaf costs
//     O(log n) per batch, not O(n).
//   - `x IS [NOT] NULL` is a leaf over x; it is never NULL.
//   - Any other expression is a truth leaf: its value kernel, read as a
//     truth value as expr's AsBool reads it.
//   - AND evaluates its right node on the rows where its left one is TRUE
//     or NULL, OR on those where it is FALSE or NULL, and NOT swaps TRUE
//     and FALSE: each operand runs on exactly the rows expr.Eval evaluates
//     it on, so a node fails on a batch exactly when the row reference
//     fails on one of its rows.
//
// Which row fails first is the error path's business (firstFailure).
type selNode interface {
	// eval appends to t the rows of sel (physical indexes into b, in
	// selection order) on which the predicate is TRUE, and to n those on
	// which it is NULL; both start empty. t may share sel's array from its
	// start: a node writes t[k] only once it has read sel[k], so it
	// narrows a selection in place. n shares no array with sel or t.
	eval(b *Batch, sel, t, n []int) ([]int, []int, error)
}

// compileSelection lowers a boolean expression into its selection tree.
// Compile errors are the value kernels'.
func compileSelection(e expr.Expr, cols []string) (selNode, error) {
	switch n := e.(type) {
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd, expr.OpOr:
			l, err := compileSelection(n.L, cols)
			if err != nil {
				return nil, err
			}
			r, err := compileSelection(n.R, cols)
			if err != nil {
				return nil, err
			}
			if n.Op == expr.OpOr {
				return &orSel{l: l, r: r}, nil
			}
			return &andSel{l: l, r: r}, nil
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return cmpLeaf(n, cols)
		}
	case *expr.Unary:
		if n.Op == expr.OpNot {
			c, err := compileSelection(n.X, cols)
			if err != nil {
				return nil, err
			}
			return &notSel{c: c}, nil
		}
	case *expr.IsNullExpr:
		k, err := compileKernel(n.X, cols)
		if err != nil {
			return nil, err
		}
		return &nullSel{x: k, negate: n.Negate}, nil
	}
	k, err := compileKernel(e, cols)
	if err != nil {
		return nil, err
	}
	return &truthSel{x: k}, nil
}

// boolKernel is the value kernel of a boolean: its tree's TRUE and NULL
// rows written into a bool vector.
func boolKernel(e expr.Expr, cols []string) (kernel, error) {
	s, err := compileSelection(e, cols)
	if err != nil {
		return nil, err
	}
	var tbuf, nbuf []int
	return kernelFunc(func(b *Batch, sel []int) (*Vector, error) {
		t, n, err := s.eval(b, sel, tbuf[:0], nbuf[:0])
		if err != nil {
			return nil, err
		}
		tbuf, nbuf = t, n
		out := &Vector{Kind: expr.KindBool, B: make([]bool, b.N)}
		for _, i := range t {
			out.B[i] = true
		}
		for _, i := range n {
			out.setNull(i, b.N)
		}
		return out, nil
	}), nil
}

// intLit returns the value of e when it is an INT literal, a negated one
// included.
func intLit(e expr.Expr) (int64, bool) {
	sign := int64(1)
	if u, ok := e.(*expr.Unary); ok && u.Op == expr.OpNeg {
		sign, e = -1, u.X
	}
	if l, ok := e.(*expr.Lit); ok && l.Val.K == expr.KindInt {
		return sign * l.Val.I, true
	}
	return 0, false
}

// flipped is the comparison with its operands swapped: 100 > k is k < 100.
func flipped(op expr.Op) expr.Op {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op
}

// cmpSel is a comparison leaf: l op r. When r is an INT literal, lit is
// its value. want[c+1] says whether a row whose operands compare as c
// (−1, 0, 1) is TRUE. nonNull is a reused buffer.
type cmpSel struct {
	l, r    kernel
	op      expr.Op
	lit     int64
	isLit   bool
	want    [3]bool
	nonNull []int
}

// cmpLeaf builds the leaf of a comparison, with an INT literal operand on
// the right.
func cmpLeaf(n *expr.Binary, cols []string) (*cmpSel, error) {
	c := &cmpSel{op: n.Op}
	le, re := n.L, n.R
	if c.lit, c.isLit = intLit(re); !c.isLit {
		if c.lit, c.isLit = intLit(le); c.isLit {
			le, re, c.op = re, le, flipped(n.Op)
		}
	}
	var err error
	if c.l, err = compileKernel(le, cols); err != nil {
		return nil, err
	}
	if c.r, err = compileKernel(re, cols); err != nil {
		return nil, err
	}
	c.want = cmpWants[c.op]
	return c, nil
}

// cmpWants gives each comparison's want: whether operands that compare as
// c hold, at c+1.
var cmpWants = map[expr.Op][3]bool{
	expr.OpEq: {false, true, false}, expr.OpNe: {true, false, true},
	expr.OpLt: {true, false, false}, expr.OpLe: {true, true, false},
	expr.OpGt: {false, false, true}, expr.OpGe: {false, true, true},
}

// eval implements selNode. The rows a NULL mask marks go to n first, so
// the typed loops test none.
func (c *cmpSel) eval(b *Batch, sel, t, n []int) ([]int, []int, error) {
	x, err := c.l.eval(b, sel)
	if err != nil {
		return nil, nil, err
	}
	if x.Kind == expr.KindInt && c.isLit {
		if x.Sorted && contiguous(sel) {
			return keepSortedIntLit(x.I, c.op, c.lit, sel, t), n, nil
		}
		sel, n = c.splitNulls(sel, x.Null, nil, n)
		return keepIntLit(x.I, c.op, c.lit, sel, t), n, nil
	}
	y, err := c.r.eval(b, sel)
	if err != nil {
		return nil, nil, err
	}
	numeric := (x.Kind == expr.KindInt || x.Kind == expr.KindFloat) && (y.Kind == expr.KindInt || y.Kind == expr.KindFloat)
	if numeric || (x.Kind == expr.KindString && y.Kind == expr.KindString) {
		sel, n = c.splitNulls(sel, x.Null, y.Null, n)
		switch {
		case x.Kind == expr.KindString:
			return keepPair(x.S, y.S, &c.want, sel, t), n, nil
		case x.Kind == expr.KindInt && y.Kind == expr.KindInt:
			return keepPair(x.I, y.I, &c.want, sel, t), n, nil
		case x.Kind == expr.KindFloat && y.Kind == expr.KindFloat:
			return keepPair(x.F, y.F, &c.want, sel, t), n, nil
		case x.Kind == expr.KindInt:
			return keepMixed(x.I, y.F, &c.want, sel, t), n, nil
		}
		return keepMixed(x.F, y.I, &c.want, sel, t), n, nil
	}
	// Bools, a string against a number, NULL and any-vectors compare boxed,
	// and fail where expr.Compare does.
	for _, i := range sel {
		l, r := x.Value(i), y.Value(i)
		if l.IsNull() || r.IsNull() {
			n = append(n, i)
			continue
		}
		o, err := expr.Compare(l, r)
		if err != nil {
			return nil, nil, err
		}
		if c.want[o+1] {
			t = append(t, i)
		}
	}
	return t, n, nil
}

// splitNulls appends the rows of sel that either mask marks NULL to n and
// returns the others, in a buffer of the leaf's own; sel itself when no
// mask is set.
func (c *cmpSel) splitNulls(sel []int, xn, yn []bool, n []int) ([]int, []int) {
	if xn == nil && yn == nil {
		return sel, n
	}
	rest := c.nonNull[:0]
	for _, i := range sel {
		if (xn != nil && xn[i]) || (yn != nil && yn[i]) {
			n = append(n, i)
		} else {
			rest = append(rest, i)
		}
	}
	c.nonNull = rest
	return rest, n
}

// order compares two values of one kind as expr.Compare does: integers
// exactly, and NaN below every number and equal to itself.
func order[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a != a && b == b: // a is NaN
		return -1
	case a == a && b != b:
		return 1
	}
	return 0
}

// intLitRange returns the integers x for which x op lit holds: the range
// [lo, hi], or its complement when outside. ok is false when no integer
// does.
func intLitRange(op expr.Op, lit int64) (lo, hi int64, outside, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case expr.OpEq:
		lo, hi = lit, lit
	case expr.OpNe:
		lo, hi, outside = lit, lit, true
	case expr.OpLt:
		if lit == math.MinInt64 {
			return 0, 0, false, false
		}
		hi = lit - 1
	case expr.OpLe:
		hi = lit
	case expr.OpGt:
		if lit == math.MaxInt64 {
			return 0, 0, false, false
		}
		lo = lit + 1
	default:
		lo = lit
	}
	return lo, hi, outside, true
}

// keepIntLit keeps the rows where xs[i] op lit, testing each row's range
// membership with one unsigned compare.
func keepIntLit(xs []int64, op expr.Op, lit int64, sel, out []int) []int {
	lo, hi, outside, ok := intLitRange(op, lit)
	if !ok {
		return out
	}
	span := uint64(hi - lo)
	for _, i := range sel {
		if (uint64(xs[i]-lo) <= span) != outside {
			out = append(out, i)
		}
	}
	return out
}

// contiguous reports whether sel, which lists rows in increasing order as
// every selection does, is one unbroken run of rows.
func contiguous(sel []int) bool {
	return len(sel) > 0 && sel[len(sel)-1]-sel[0] == len(sel)-1
}

// keepSortedIntLit is keepIntLit over a contiguous selection of a sorted,
// NULL-free run: the rows in [lo, hi] are one run of it, found by binary
// search, and <> keeps the rows on either side of that run.
func keepSortedIntLit(xs []int64, op expr.Op, lit int64, sel, out []int) []int {
	lo, hi, outside, ok := intLitRange(op, lit)
	if !ok {
		return out
	}
	first, end := sel[0], sel[0]+len(sel)
	run := xs[first:end]
	from, _ := slices.BinarySearch(run, lo)
	to := len(run)
	if hi < math.MaxInt64 {
		to, _ = slices.BinarySearch(run, hi+1)
	}
	if outside {
		return appendRun(appendRun(out, first, first+from), first+to, end)
	}
	return appendRun(out, first+from, first+to)
}

// appendRun appends the rows lo..hi−1, copying them from identitySel when
// they lie inside it.
func appendRun(out []int, lo, hi int) []int {
	if hi <= len(identitySel) {
		return append(out, identitySel[lo:hi]...)
	}
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func keepPair[T int64 | float64 | string](xs, ys []T, want *[3]bool, sel, out []int) []int {
	for _, i := range sel {
		if want[order(xs[i], ys[i])+1] {
			out = append(out, i)
		}
	}
	return out
}

// keepMixed compares an INT with a DOUBLE as doubles.
func keepMixed[X, Y int64 | float64](xs []X, ys []Y, want *[3]bool, sel, out []int) []int {
	for _, i := range sel {
		if want[order(float64(xs[i]), float64(ys[i]))+1] {
			out = append(out, i)
		}
	}
	return out
}

// nullSel is the leaf of `x IS [NOT] NULL`.
type nullSel struct {
	x      kernel
	negate bool
}

// eval implements selNode.
func (s *nullSel) eval(b *Batch, sel, t, n []int) ([]int, []int, error) {
	v, err := s.x.eval(b, sel)
	if err != nil {
		return nil, nil, err
	}
	if v.Kind != expr.KindNull && v.Kind != anyKind && v.Null == nil {
		if s.negate {
			t = append(t, sel...)
		}
		return t, n, nil
	}
	for _, i := range sel {
		if v.IsNull(i) != s.negate {
			t = append(t, i)
		}
	}
	return t, n, nil
}

// truthSel reads a value as a truth value: a number is TRUE when nonzero,
// and a string fails, as expr's AsBool reads them.
type truthSel struct{ x kernel }

// eval implements selNode.
func (s *truthSel) eval(b *Batch, sel, t, n []int) ([]int, []int, error) {
	v, err := s.x.eval(b, sel)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range sel {
		if v.IsNull(i) {
			n = append(n, i)
			continue
		}
		truth, err := v.Value(i).AsBool()
		if err != nil {
			return nil, nil, err
		}
		if truth {
			t = append(t, i)
		}
	}
	return t, n, nil
}

// member reports whether row i is next in the sorted list xs, advancing
// *p past it when it is. Walking a selection in order with one cursor per
// list tests each row's membership in O(1).
func member(xs []int, p *int, i int) bool {
	if *p < len(xs) && xs[*p] == i {
		*p++
		return true
	}
	return false
}

// notSel swaps its child's TRUE and FALSE rows; the child's NULL rows stay
// NULL. ct and cn are reused buffers.
type notSel struct {
	c      selNode
	ct, cn []int
}

// eval implements selNode.
func (s *notSel) eval(b *Batch, sel, t, n []int) ([]int, []int, error) {
	ct, cn, err := s.c.eval(b, sel, s.ct[:0], s.cn[:0])
	if err != nil {
		return nil, nil, err
	}
	s.ct, s.cn = ct, cn
	p, q := 0, 0
	for _, i := range sel {
		if !member(ct, &p, i) && !member(cn, &q, i) {
			t = append(t, i)
		}
	}
	return t, append(n, cn...), nil
}

// andSel evaluates its right node on the rows its left one leaves TRUE or
// NULL. lt, ln, rows, rt and rn are reused buffers.
type andSel struct {
	l, r                 selNode
	lt, ln, rows, rt, rn []int
}

// eval implements selNode.
func (a *andSel) eval(b *Batch, sel, t, n []int) ([]int, []int, error) {
	lt, ln, err := a.l.eval(b, sel, a.lt[:0], a.ln[:0])
	if err != nil {
		return nil, nil, err
	}
	a.lt, a.ln = lt, ln
	if len(ln) == 0 {
		// The common case chains: the right node narrows the left's TRUE
		// rows.
		return a.r.eval(b, lt, t, n)
	}
	rows, p, q := a.rows[:0], 0, 0
	for _, i := range sel {
		if member(lt, &p, i) || member(ln, &q, i) {
			rows = append(rows, i)
		}
	}
	a.rows = rows
	rt, rn, err := a.r.eval(b, rows, a.rt[:0], a.rn[:0])
	if err != nil {
		return nil, nil, err
	}
	a.rt, a.rn = rt, rn
	p, q, r := 0, 0, 0
	for _, i := range rows {
		lNull, rTrue, rNull := member(ln, &p, i), member(rt, &q, i), member(rn, &r, i)
		switch {
		case rTrue && !lNull:
			t = append(t, i)
		case rNull || rTrue:
			n = append(n, i)
		}
	}
	return t, n, nil
}

// orSel evaluates its right node on the rows its left one leaves FALSE or
// NULL. lt, ln, rest and rn are reused buffers.
type orSel struct {
	l, r             selNode
	lt, ln, rest, rn []int
}

// eval implements selNode.
func (o *orSel) eval(b *Batch, sel, t, n []int) ([]int, []int, error) {
	lt, ln, err := o.l.eval(b, sel, o.lt[:0], o.ln[:0])
	if err != nil {
		return nil, nil, err
	}
	o.lt, o.ln = lt, ln
	rest, p := o.rest[:0], 0
	for _, i := range sel {
		if !member(lt, &p, i) {
			rest = append(rest, i)
		}
	}
	o.rest = rest
	rt, rn, err := o.r.eval(b, rest, rest[:0], o.rn[:0])
	if err != nil {
		return nil, nil, err
	}
	o.rn = rn
	// NULL: the right node is NULL, or FALSE against a NULL left. Walk sel
	// for it before t, which may share sel's array, overwrites it.
	p, q, r, s := 0, 0, 0, 0
	for _, i := range sel {
		if member(lt, &p, i) {
			continue
		}
		lNull, rTrue, rNull := member(ln, &q, i), member(rt, &r, i), member(rn, &s, i)
		if rNull || (lNull && !rTrue) {
			n = append(n, i)
		}
	}
	p, q = 0, 0
	for _, i := range sel {
		if member(lt, &p, i) || member(rt, &q, i) {
			t = append(t, i)
		}
	}
	return t, n, nil
}
