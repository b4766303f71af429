package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// The row-at-a-time reference: a pull iterator per plan node, each with its
// own state, that drains a logical plan without lowering it. It is the
// oracle every differential suite compares the pipeline against, so it
// stays the simplest evaluator there is: one boxed row at a time through
// expr.Eval. The pipeline's plan-time errors carry the texts these
// iterators give at Open or on the offending row.

// rowReference builds the row reference of a plan.
func rowReference(n Node) Operator {
	switch o := n.(type) {
	case *TableScan:
		return &tableScanRef{TableScan: o}
	case *PartitionScan:
		return &partitionScanRef{PartitionScan: o}
	case *ValuesScan:
		return &valuesScanRef{ValuesScan: o}
	case *Filter:
		return &filterRef{Filter: o, Child: rowReference(o.Child)}
	case *Project:
		return &projectRef{Project: o, Child: rowReference(o.Child)}
	case *HashAggregate:
		return &hashAggregateRef{HashAggregate: o, Child: rowReference(o.Child)}
	case *HashJoin:
		return &hashJoinRef{HashJoin: o, Left: rowReference(o.Left), Right: rowReference(o.Right)}
	case *Sort:
		return &sortRef{Sort: o, Child: rowReference(o.Child)}
	case *Limit:
		return &limitRef{Limit: o, Child: rowReference(o.Child)}
	case *sliceOp:
		return &sliceOpRef{sliceOp: o, Child: rowReference(o.Child)}
	case *Concat:
		children := make([]Operator, len(o.Children))
		for i, c := range o.Children {
			children[i] = rowReference(c)
		}
		return &concatRef{Concat: o, Children: children}
	}
	panic(fmt.Sprintf("exec: %T has no row reference", n))
}

// bindReference attaches ctx to every ContextAware iterator of a row
// reference, as BindContext does for a lowered plan.
func bindReference(op Operator, ctx context.Context) {
	if ca, ok := op.(ContextAware); ok {
		ca.SetContext(ctx)
	}
	switch o := op.(type) {
	case *filterRef:
		bindReference(o.Child, ctx)
	case *projectRef:
		bindReference(o.Child, ctx)
	case *limitRef:
		bindReference(o.Child, ctx)
	case *sortRef:
		bindReference(o.Child, ctx)
	case *sliceOpRef:
		bindReference(o.Child, ctx)
	case *hashAggregateRef:
		bindReference(o.Child, ctx)
	case *hashJoinRef:
		bindReference(o.Left, ctx)
		bindReference(o.Right, ctx)
	case *concatRef:
		for _, c := range o.Children {
			bindReference(c, ctx)
		}
	case *partitionScanRef:
		// Child partition scans are built at Open and inherit the bound
		// context from the scan itself (ContextAware above).
	default:
		BindContext(op, ctx)
	}
}

// rowEnv adapts a row plus its column names to the expression evaluator.
type rowEnv struct {
	cols []string
	row  Row
	// cache maps identifier names to resolved indexes across rows.
	cache map[string]int
}

func newRowEnv(cols []string) *rowEnv {
	return &rowEnv{cols: cols, cache: map[string]int{}}
}

// resolve pre-resolves every identifier the given expressions reference, so
// hot loops never call ResolveColumn and ambiguous columns error at Open
// time instead of surfacing as "unknown identifier" on the first row.
// Unknown names stay lazily reported (some, like aggregate placeholders,
// are legal eval-time errors).
func (e *rowEnv) resolve(exprs ...expr.Expr) error {
	for _, ex := range exprs {
		if ex == nil {
			continue
		}
		for _, name := range expr.Vars(ex) {
			if _, ok := e.cache[name]; ok {
				continue
			}
			i, err := ResolveColumn(e.cols, name)
			if err != nil {
				if errors.Is(err, ErrAmbiguous) {
					return err
				}
				e.cache[name] = -1
				continue
			}
			e.cache[name] = i
		}
	}
	return nil
}

func (e *rowEnv) bind(row Row) { e.row = row }

// Lookup implements expr.Env.
func (e *rowEnv) Lookup(name string) (expr.Value, bool) {
	if i, ok := e.cache[name]; ok {
		if i < 0 {
			return expr.Value{}, false
		}
		return e.row[i], true
	}
	i, err := ResolveColumn(e.cols, name)
	if err != nil {
		e.cache[name] = -1
		return expr.Value{}, false
	}
	e.cache[name] = i
	return e.row[i], true
}

// EvalPredicate evaluates a boolean expression over a row with SQL
// three-valued logic: NULL counts as not-matching.
func EvalPredicate(pred expr.Expr, env *rowEnv) (bool, error) {
	v, err := expr.Eval(pred, env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

// filterRef passes through rows for which Pred evaluates to TRUE.
type filterRef struct {
	*Filter
	Child Operator

	env *rowEnv
}

// Open implements Operator.
func (f *filterRef) Open() error {
	f.env = newRowEnv(f.Child.Columns())
	if err := f.env.resolve(f.Pred); err != nil {
		return err
	}
	return f.Child.Open()
}

// Next implements Operator.
func (f *filterRef) Next() (Row, error) {
	for {
		row, err := f.Child.Next()
		if err != nil || row == nil {
			return row, err
		}
		f.env.bind(row)
		ok, err := EvalPredicate(f.Pred, f.env)
		if err != nil {
			return nil, fmt.Errorf("exec: WHERE: %w", err)
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *filterRef) Close() error { return f.Child.Close() }

// projectRef computes one output column per expression.
type projectRef struct {
	*Project
	Child Operator

	env *rowEnv
}

// Open implements Operator.
func (p *projectRef) Open() error {
	if len(p.Exprs) != len(p.Names) {
		return fmt.Errorf("exec: project has %d exprs, %d names", len(p.Exprs), len(p.Names))
	}
	p.env = newRowEnv(p.Child.Columns())
	if err := p.env.resolve(p.Exprs...); err != nil {
		return err
	}
	return p.Child.Open()
}

// Next implements Operator.
func (p *projectRef) Next() (Row, error) {
	row, err := p.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	p.env.bind(row)
	out := make(Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := expr.Eval(e, p.env)
		if err != nil {
			return nil, fmt.Errorf("exec: projecting %s: %w", e, err)
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *projectRef) Close() error { return p.Child.Close() }

// limitRef stops after N rows.
type limitRef struct {
	*Limit
	Child Operator

	seen int
}

// Open implements Operator.
func (l *limitRef) Open() error { l.seen = 0; return l.Child.Open() }

// Next implements Operator.
func (l *limitRef) Next() (Row, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	row, err := l.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Close implements Operator.
func (l *limitRef) Close() error { return l.Child.Close() }

// sortRef materializes the child and emits rows ordered by Keys, ties in
// input order; NULLs sort first ascending (last descending).
type sortRef struct {
	*Sort
	Child Operator

	rows []Row
	pos  int
}

// Open implements Operator.
func (s *sortRef) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.rows = nil
	s.pos = 0
	check := make(sortCheck, len(s.Keys))
	for {
		row, err := s.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		for k, key := range s.Keys {
			check.observe(k, row[key.Col])
		}
		s.rows = append(s.rows, row)
	}
	if err := check.err(); err != nil {
		return err
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		return cmpSortKeys(s.Keys, s.rows[i], s.rows[j]) < 0
	})
	return nil
}

// Next implements Operator.
func (s *sortRef) Next() (Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *sortRef) Close() error {
	s.rows = nil
	return s.Child.Close()
}

// concatRef emits all rows of its children in order.
type concatRef struct {
	*Concat
	Children []Operator
	idx      int
}

// Open implements Operator.
func (c *concatRef) Open() error {
	if len(c.Children) == 0 {
		return fmt.Errorf("exec: empty concat")
	}
	want := c.Children[0].Columns()
	for _, ch := range c.Children[1:] {
		got := ch.Columns()
		if len(got) != len(want) {
			return fmt.Errorf("exec: concat children have %d vs %d columns", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("exec: concat column %d mismatch: %q vs %q", i, got[i], want[i])
			}
		}
	}
	c.idx = 0
	return c.Children[0].Open()
}

// Next implements Operator.
func (c *concatRef) Next() (Row, error) {
	for {
		row, err := c.Children[c.idx].Next()
		if err != nil {
			return nil, err
		}
		if row != nil {
			return row, nil
		}
		if err := c.Children[c.idx].Close(); err != nil {
			return nil, err
		}
		c.idx++
		if c.idx >= len(c.Children) {
			return nil, nil
		}
		if err := c.Children[c.idx].Open(); err != nil {
			return nil, err
		}
	}
}

// Close implements Operator.
func (c *concatRef) Close() error {
	if c.idx < len(c.Children) {
		return c.Children[c.idx].Close()
	}
	return nil
}

// hashAggregateRef groups rows by GroupExprs and computes Aggs per group.
type hashAggregateRef struct {
	*HashAggregate
	Child Operator

	groups []*aggGroup
	pos    int
}

// Open implements Operator: it fully consumes the child and builds groups.
func (h *hashAggregateRef) Open() error {
	if err := h.Child.Open(); err != nil {
		return err
	}
	h.groups = nil
	h.pos = 0
	env := newRowEnv(h.Child.Columns())
	if err := env.resolve(h.GroupExprs...); err != nil {
		return err
	}
	for _, spec := range h.Aggs {
		if err := env.resolve(spec.Arg); err != nil {
			return err
		}
	}
	index := map[string]*aggGroup{}
	var order []*aggGroup
	var kb []byte
	for {
		row, err := h.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		env.bind(row)
		key := make([]expr.Value, len(h.GroupExprs))
		kb = kb[:0]
		for i, g := range h.GroupExprs {
			v, err := expr.Eval(g, env)
			if err != nil {
				return fmt.Errorf("exec: GROUP BY: %w", err)
			}
			key[i] = v
			kb = appendGroupKey(kb, v)
		}
		grp, ok := index[string(kb)]
		if !ok {
			grp = &aggGroup{key: key, states: make([]aggState, len(h.Aggs))}
			index[string(kb)] = grp
			order = append(order, grp)
		}
		for i, spec := range h.Aggs {
			var v expr.Value
			if spec.Arg == nil {
				v = expr.Int(1) // COUNT(*): any non-null marker
			} else {
				v, err = expr.Eval(spec.Arg, env)
				if err != nil {
					return fmt.Errorf("exec: aggregate arg: %w", err)
				}
			}
			if err := grp.states[i].update(spec.Kind, v); err != nil {
				return fmt.Errorf("exec: aggregate: %w", err)
			}
		}
	}
	// A global aggregate over zero rows still yields one output row.
	if len(order) == 0 && len(h.GroupExprs) == 0 {
		order = append(order, &aggGroup{states: make([]aggState, len(h.Aggs))})
	}
	h.groups = order
	return nil
}

// Next implements Operator.
func (h *hashAggregateRef) Next() (Row, error) {
	if h.pos >= len(h.groups) {
		return nil, nil
	}
	g := h.groups[h.pos]
	h.pos++
	out := make(Row, 0, len(g.key)+len(h.Aggs))
	out = append(out, g.key...)
	for i, spec := range h.Aggs {
		out = append(out, g.states[i].final(spec.Kind))
	}
	return out, nil
}

// Close implements Operator.
func (h *hashAggregateRef) Close() error {
	h.groups = nil
	return h.Child.Close()
}

// hashJoinRef is the row inner equi-join. It builds on the right input and
// emits each left row's matches in build order. It checks the statement
// context itself: a join can emit unboundedly many rows per input row, so
// the leaf scans' checks alone would not bound cancellation latency.
type hashJoinRef struct {
	*HashJoin
	Left, Right Operator
	Interruptible

	leftKeys, rightKeys []int
	built               []Row
	index               joinIndex
	curLeft             Row
	cand                int32 // next build row to test against curLeft; -1 when none
	leftDone            bool
}

// Open implements Operator: it extracts the equi-keys, builds a hash table
// on the right input, and prepares to stream the left input.
func (j *hashJoinRef) Open() error {
	lcols, rcols := j.Left.Columns(), j.Right.Columns()
	lk, rk, err := extractEquiKeys(j.On, lcols, rcols)
	if err != nil {
		return err
	}
	j.leftKeys, j.rightKeys = lk, rk
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.built = nil
	for {
		row, err := j.Right.Next()
		if err != nil {
			// Close the build side on a failed drain so a parallel input
			// (gather worker pool) shuts down instead of leaking.
			j.Right.Close()
			return err
		}
		if row == nil {
			break
		}
		j.built = append(j.built, row)
	}
	if err := j.Right.Close(); err != nil {
		return err
	}
	j.index = newJoinIndex(len(j.built), func(r int) (uint64, bool) { return keyHash(j.rightKeys, j.built[r].at) })
	j.cand, j.leftDone = -1, false
	j.ResetInterrupt()
	return j.Left.Open()
}

// Next implements Operator.
func (j *hashJoinRef) Next() (Row, error) {
	for {
		if err := j.CheckInterrupt(); err != nil {
			return nil, err
		}
		if j.cand >= 0 {
			r := j.built[j.cand]
			j.cand = j.index.next[j.cand]
			if !keysEqual(j.leftKeys, j.rightKeys, j.curLeft.at, r.at) {
				continue
			}
			out := make(Row, 0, len(j.curLeft)+len(r))
			out = append(out, j.curLeft...)
			out = append(out, r...)
			return out, nil
		}
		if j.leftDone {
			return nil, nil
		}
		row, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			j.leftDone = true
			return nil, nil
		}
		if h, ok := keyHash(j.leftKeys, row.at); ok {
			j.curLeft = row
			j.cand = j.index.head[h] - 1
		}
	}
}

// Close implements Operator.
func (j *hashJoinRef) Close() error {
	j.built, j.index = nil, joinIndex{}
	return j.Left.Close()
}

func (r Row) at(c int) expr.Value { return r[c] }

// tableScanRef reads a base table chunk by chunk, capturing one consistent
// ChunkView at Open so concurrent appends do not tear the scan; sealed
// chunks the zone maps rule out are skipped without being decoded.
type tableScanRef struct {
	*TableScan
	Interruptible

	cs     chunkSet
	ki     int
	cur    []storage.Column
	n, pos int
}

// Open implements Operator.
func (s *tableScanRef) Open() error {
	cs, err := captureChunks(s.Table, s.Where, s.alias)
	if err != nil {
		return err
	}
	s.cs = cs
	s.ki = 0
	s.cur, s.n, s.pos = nil, 0, 0
	s.ResetInterrupt()
	return nil
}

// Next implements Operator, advancing to the next surviving chunk when the
// current one drains. Chunks decode through the shared cache on first
// touch, so a row loop over a cold table pays one decode per chunk.
func (s *tableScanRef) Next() (Row, error) {
	if err := s.CheckInterrupt(); err != nil {
		return nil, err
	}
	for {
		if s.cur == nil {
			if s.ki >= s.cs.numChunks() {
				return nil, nil
			}
			ci := s.cs.keep[s.ki]
			cols, err := s.cs.view.Columns(ci, nil)
			if err != nil {
				return nil, err
			}
			s.cur, s.n, s.pos = cols, s.cs.view.ChunkLen(ci), 0
		}
		if s.pos >= s.n {
			s.cur = nil
			s.ki++
			continue
		}
		row := make(Row, len(s.cur))
		for c, col := range s.cur {
			row[c] = col.Value(s.pos)
		}
		s.pos++
		return row, nil
	}
}

// Close implements Operator.
func (s *tableScanRef) Close() error {
	s.cur, s.cs = nil, chunkSet{}
	return nil
}

// valuesScanRef replays pre-materialized rows.
type valuesScanRef struct {
	*ValuesScan
	Interruptible
	pos int
}

// Open implements Operator.
func (s *valuesScanRef) Open() error { s.pos = 0; s.ResetInterrupt(); return nil }

// Next implements Operator.
func (s *valuesScanRef) Next() (Row, error) {
	if err := s.CheckInterrupt(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.Rows) {
		return nil, nil
	}
	r := s.Rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *valuesScanRef) Close() error { return nil }

// partitionScanRef reads the surviving partitions in partition order.
type partitionScanRef struct {
	*PartitionScan
	Interruptible

	scans []*tableScanRef
	cur   int
}

// Open implements Operator. Every surviving partition is captured here, not
// when the scan reaches it, so the whole scan reads one snapshot — the same
// one the vectorized scan captures.
func (s *partitionScanRef) Open() error {
	s.scans = make([]*tableScanRef, len(s.Parts))
	for i, p := range s.Parts {
		ts := &tableScanRef{TableScan: NewTableScanAs(p, s.Parted.Name)}
		ts.Where = s.Where
		ts.SetContext(s.Context())
		if err := ts.Open(); err != nil {
			return err
		}
		s.scans[i] = ts
	}
	s.cur = 0
	return nil
}

// Next implements Operator, draining each surviving partition in turn.
func (s *partitionScanRef) Next() (Row, error) {
	for s.cur < len(s.scans) {
		row, err := s.scans[s.cur].Next()
		if err != nil || row != nil {
			return row, err
		}
		s.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (s *partitionScanRef) Close() error {
	s.scans = nil
	return nil
}

// sliceOpRef keeps only the first N columns of each row (dropping hidden
// sort keys).
type sliceOpRef struct {
	*sliceOp
	Child Operator
}

func (s *sliceOpRef) Open() error { return s.Child.Open() }
func (s *sliceOpRef) Next() (Row, error) {
	row, err := s.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	return row[:s.N], nil
}
func (s *sliceOpRef) Close() error { return s.Child.Close() }
