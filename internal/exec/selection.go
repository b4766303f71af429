package exec

import (
	"math"
	"slices"

	"datalaws/internal/expr"
)

// A WHERE runs as a tree of selection kernels: each node narrows a
// selection to the rows on which its predicate is TRUE, so a filter never
// materializes a bool vector for a predicate it can evaluate typed.
//
//   - A comparison between a column and a numeric literal (on either side),
//     or between two columns, is a typed leaf: one loop over the selection
//     that appends the surviving rows. INT against INT compares exactly;
//     any other numeric pair goes through cmpF, so NaN and ±0 keep
//     expr.Compare's rules. A NULL literal keeps no row, and a row that is
//     NULL on either side is dropped. `col IS [NOT] NULL` is a typed leaf
//     too.
//   - An INT column against an INT literal over a sorted run (a window of a
//     sealed chunk whose zone map says Sorted) and a contiguous selection
//     keeps one run of rows, or two for <>: two binary searches find it, so
//     the leaf costs O(log n) per batch, not O(n).
//   - AND feeds its left node's rows to its right node; OR evaluates its
//     right node on the rows its left node did not keep (the FALSE and NULL
//     rows, exactly those the value kernel evaluates it on) and merges.
//   - Anything else is a generic leaf: the value kernel plus the truth loop.
//
// The kind of a vector is known only per batch, so a typed leaf that meets
// a vector it has no loop for evaluates that batch as a generic leaf.
//
// Errors are the value kernel's. compileLogicalKernel evaluates the right
// operand of an AND on the rows where the left is TRUE or NULL, so an
// error there surfaces even when no row survives. A chained AND evaluates
// its right node only on the TRUE rows, so an AND chains only when its
// right subtree is all typed leaves (typedSel), and only on a batch where
// none of them can fail (safe); otherwise it evaluates as a generic leaf.
type selNode interface {
	// keep appends to out, in selection order, the rows of sel (physical
	// indexes into b) on which the predicate is TRUE. out may share sel's
	// array from its start: a node writes out[k] only once it has read
	// sel[k], so it narrows a selection in place.
	keep(b *Batch, sel, out []int) ([]int, error)
	// safe reports whether keep cannot fail on b.
	safe(b *Batch) bool
}

// compileSelection lowers a WHERE or HAVING predicate into its selection
// tree. Compile errors are the value kernel's: every leaf that does not
// resolve its columns is a generic leaf, compiled eagerly.
func compileSelection(e expr.Expr, cols []string) (selNode, error) {
	switch n := e.(type) {
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd, expr.OpOr:
			if n.Op == expr.OpAnd && !typedSel(n.R, cols) {
				break
			}
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
			return &andSel{l: l, r: r, whole: genericSel{e: e, cols: cols}}, nil
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			if c, ok := cmpLeaf(n, cols); ok {
				return &c, nil
			}
		}
	case *expr.IsNullExpr:
		if idx, ok := columnOf(n.X, cols); ok {
			return &nullSel{col: idx, negate: n.Negate}, nil
		}
	}
	g := &genericSel{e: e, cols: cols}
	if err := g.compile(); err != nil {
		return nil, err
	}
	return g, nil
}

// typedSel reports whether e compiles to typed leaves only, joined by AND
// and OR.
func typedSel(e expr.Expr, cols []string) bool {
	switch n := e.(type) {
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd, expr.OpOr:
			return typedSel(n.L, cols) && typedSel(n.R, cols)
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			_, ok := cmpLeaf(n, cols)
			return ok
		}
	case *expr.IsNullExpr:
		_, ok := columnOf(n.X, cols)
		return ok
	}
	return false
}

// columnOf resolves e when it is a column reference.
func columnOf(e expr.Expr, cols []string) (int, bool) {
	id, ok := e.(*expr.Ident)
	if !ok {
		return 0, false
	}
	idx, err := ResolveColumn(cols, id.Name)
	return idx, err == nil
}

// numericLit returns the value of e when it is a numeric or NULL literal,
// a negated one included.
func numericLit(e expr.Expr) (expr.Value, bool) {
	neg := false
	if u, ok := e.(*expr.Unary); ok && u.Op == expr.OpNeg {
		neg, e = true, u.X
	}
	l, ok := e.(*expr.Lit)
	if !ok {
		return expr.Value{}, false
	}
	switch l.Val.K {
	case expr.KindInt, expr.KindFloat, expr.KindNull:
	default:
		return expr.Value{}, false
	}
	if !neg {
		return l.Val, true
	}
	v, err := expr.ApplyUnary(expr.OpNeg, l.Val)
	return v, err == nil
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

// cmpSel is a typed comparison leaf: column l op column r, or l op the
// literal lit when r < 0. want[c+1] says whether a row whose operands
// compare as c (−1, 0, 1) is kept.
type cmpSel struct {
	l, r int
	op   expr.Op
	lit  expr.Value
	want [3]bool
	// generic evaluates a batch this leaf has no loop for.
	generic genericSel
}

// cmpLeaf builds the typed leaf of a comparison, if it has one.
func cmpLeaf(n *expr.Binary, cols []string) (cmpSel, bool) {
	c := cmpSel{r: -1, generic: genericSel{e: n, cols: cols}}
	op := n.Op
	if l, ok := columnOf(n.L, cols); ok {
		c.l = l
		if r, ok := columnOf(n.R, cols); ok {
			c.r = r
		} else if c.lit, ok = numericLit(n.R); !ok {
			return cmpSel{}, false
		}
	} else if r, ok := columnOf(n.R, cols); ok {
		if c.lit, ok = numericLit(n.L); !ok {
			return cmpSel{}, false
		}
		c.l, op = r, flipped(op)
	} else {
		return cmpSel{}, false
	}
	c.op = op
	for i := range c.want {
		c.want[i] = cmpHolds(op, i-1)
	}
	return c, true
}

func numericKind(k expr.Kind) bool { return k == expr.KindInt || k == expr.KindFloat }

// safe implements selNode: a typed loop cannot fail, and a NULL literal
// keeps no row without looking at the column.
func (c *cmpSel) safe(b *Batch) bool {
	if c.r < 0 {
		return c.lit.K == expr.KindNull || numericKind(b.Cols[c.l].Kind)
	}
	return numericKind(b.Cols[c.l].Kind) && numericKind(b.Cols[c.r].Kind)
}

// keep implements selNode.
func (c *cmpSel) keep(b *Batch, sel, out []int) ([]int, error) {
	if c.r < 0 && c.lit.K == expr.KindNull {
		return out, nil
	}
	if !c.safe(b) {
		return c.generic.keep(b, sel, out)
	}
	x := b.Cols[c.l]
	if c.r < 0 {
		if x.Kind == expr.KindInt && c.lit.K == expr.KindInt {
			if x.Sorted && contiguous(sel) {
				return keepSortedIntLit(x.I, c.op, c.lit.I, sel, out), nil
			}
			return keepIntLit(x.I, x.Null, c.op, c.lit.I, sel, out), nil
		}
		lit, _ := c.lit.AsFloat()
		if x.Kind == expr.KindInt {
			return keepLit(x.I, x.Null, lit, &c.want, sel, out), nil
		}
		return keepLit(x.F, x.Null, lit, &c.want, sel, out), nil
	}
	y := b.Cols[c.r]
	switch {
	case x.Kind == expr.KindInt && y.Kind == expr.KindInt:
		return keepIntCols(x.I, y.I, x.Null, y.Null, &c.want, sel, out), nil
	case x.Kind == expr.KindInt:
		return keepCols(x.I, y.F, x.Null, y.Null, &c.want, sel, out), nil
	case y.Kind == expr.KindInt:
		return keepCols(x.F, y.I, x.Null, y.Null, &c.want, sel, out), nil
	}
	return keepCols(x.F, y.F, x.Null, y.Null, &c.want, sel, out), nil
}

// cmpInt orders two integers exactly.
func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
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
func keepIntLit(xs []int64, nulls []bool, op expr.Op, lit int64, sel, out []int) []int {
	lo, hi, outside, ok := intLitRange(op, lit)
	if !ok {
		return out
	}
	span := uint64(hi - lo)
	for _, i := range sel {
		if (nulls == nil || !nulls[i]) && (uint64(xs[i]-lo) <= span) != outside {
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

func keepLit[T int64 | float64](xs []T, nulls []bool, lit float64, want *[3]bool, sel, out []int) []int {
	for _, i := range sel {
		if (nulls == nil || !nulls[i]) && want[cmpF(float64(xs[i]), lit)+1] {
			out = append(out, i)
		}
	}
	return out
}

func keepIntCols(xs, ys []int64, xn, yn []bool, want *[3]bool, sel, out []int) []int {
	for _, i := range sel {
		if (xn == nil || !xn[i]) && (yn == nil || !yn[i]) && want[cmpInt(xs[i], ys[i])+1] {
			out = append(out, i)
		}
	}
	return out
}

func keepCols[X, Y int64 | float64](xs []X, ys []Y, xn, yn []bool, want *[3]bool, sel, out []int) []int {
	for _, i := range sel {
		if (xn == nil || !xn[i]) && (yn == nil || !yn[i]) && want[cmpF(float64(xs[i]), float64(ys[i]))+1] {
			out = append(out, i)
		}
	}
	return out
}

// nullSel is the typed leaf of `col IS [NOT] NULL`.
type nullSel struct {
	col    int
	negate bool
}

// safe implements selNode.
func (n *nullSel) safe(*Batch) bool { return true }

// keep implements selNode.
func (n *nullSel) keep(b *Batch, sel, out []int) ([]int, error) {
	v := b.Cols[n.col]
	if v.Kind != expr.KindNull && v.Kind != anyKind && v.Null == nil {
		if n.negate {
			out = append(out, sel...)
		}
		return out, nil
	}
	for _, i := range sel {
		if v.IsNull(i) != n.negate {
			out = append(out, i)
		}
	}
	return out, nil
}

// andSel chains its left node into its right one; whole evaluates a batch
// on which the right node could fail.
type andSel struct {
	l, r  selNode
	whole genericSel
}

// safe implements selNode.
func (a *andSel) safe(b *Batch) bool { return a.l.safe(b) && a.r.safe(b) }

// keep implements selNode.
func (a *andSel) keep(b *Batch, sel, out []int) ([]int, error) {
	if !a.r.safe(b) {
		return a.whole.keep(b, sel, out)
	}
	l, err := a.l.keep(b, sel, out)
	if err != nil {
		return nil, err
	}
	return a.r.keep(b, l, l[:0])
}

// orSel keeps the rows either node keeps: the right node sees only the
// rows the left one did not keep. lbuf and rest are reused buffers.
type orSel struct {
	l, r       selNode
	lbuf, rest []int
}

// safe implements selNode.
func (o *orSel) safe(b *Batch) bool { return o.l.safe(b) && o.r.safe(b) }

// keep implements selNode.
func (o *orSel) keep(b *Batch, sel, out []int) ([]int, error) {
	l, err := o.l.keep(b, sel, o.lbuf[:0])
	if err != nil {
		return nil, err
	}
	o.lbuf = l
	rest, p := o.rest[:0], 0
	for _, i := range sel {
		if p < len(l) && l[p] == i {
			p++
			continue
		}
		rest = append(rest, i)
	}
	r, err := o.r.keep(b, rest, rest[:0])
	if err != nil {
		return nil, err
	}
	o.rest = rest
	// Both lists are subsequences of sel: merge them in sel's order.
	p, q := 0, 0
	for _, i := range sel {
		switch {
		case p < len(l) && l[p] == i:
			p++
		case q < len(r) && r[q] == i:
			q++
		default:
			continue
		}
		out = append(out, i)
	}
	return out, nil
}

// genericSel is the value kernel of a predicate plus the truth loop. A
// fallback leaf compiles on first use; its expression has compiled before.
type genericSel struct {
	e    expr.Expr
	cols []string
	kern kernelFn
}

func (g *genericSel) compile() error {
	k, err := compileKernel(g.e, g.cols)
	if err != nil {
		return err
	}
	g.kern = k
	return nil
}

// safe implements selNode.
func (g *genericSel) safe(*Batch) bool { return false }

// keep implements selNode.
func (g *genericSel) keep(b *Batch, sel, out []int) ([]int, error) {
	if g.kern == nil {
		if err := g.compile(); err != nil {
			return nil, err
		}
	}
	v, err := g.kern(b, sel)
	if err != nil {
		return nil, err
	}
	if v.Kind == expr.KindBool {
		for _, i := range sel {
			if v.B[i] && (v.Null == nil || !v.Null[i]) {
				out = append(out, i)
			}
		}
		return out, nil
	}
	for _, i := range sel {
		t, isN, err := truth(v, i)
		if err != nil {
			return nil, err
		}
		if !isN && t {
			out = append(out, i)
		}
	}
	return out, nil
}
