package exec

import (
	"fmt"
	"sort"

	"datalaws/internal/expr"
)

// Filter passes through rows for which Pred evaluates to TRUE.
type Filter struct {
	Child Operator
	Pred  expr.Expr

	env *rowEnv
}

// Columns implements Operator.
func (f *Filter) Columns() []string { return f.Child.Columns() }

// Open implements Operator.
func (f *Filter) Open() error {
	f.env = newRowEnv(f.Child.Columns())
	if err := f.env.resolve(f.Pred); err != nil {
		return err
	}
	return f.Child.Open()
}

// Next implements Operator.
func (f *Filter) Next() (Row, error) {
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
func (f *Filter) Close() error { return f.Child.Close() }

// Project computes one output column per expression.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	Names []string

	env *rowEnv
}

// Columns implements Operator.
func (p *Project) Columns() []string { return p.Names }

// Open implements Operator.
func (p *Project) Open() error {
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
func (p *Project) Next() (Row, error) {
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
func (p *Project) Close() error { return p.Child.Close() }

// Limit stops after N rows.
type Limit struct {
	Child Operator
	N     int

	seen int
}

// Columns implements Operator.
func (l *Limit) Columns() []string { return l.Child.Columns() }

// Open implements Operator.
func (l *Limit) Open() error { l.seen = 0; return l.Child.Open() }

// Next implements Operator.
func (l *Limit) Next() (Row, error) {
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
func (l *Limit) Close() error { return l.Child.Close() }

// SortKey orders by a column index with direction.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes the child and emits rows ordered by Keys, ties in input
// order; NULLs sort first ascending (last descending). It is the reference
// for VecSort.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rows []Row
	pos  int
}

// Columns implements Operator.
func (s *Sort) Columns() []string { return s.Child.Columns() }

// Open implements Operator.
func (s *Sort) Open() error {
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

// cmpSortKeys orders two rows by the keys alone (0: a tie); key columns that
// passed sortCheck compare without error.
func cmpSortKeys(keys []SortKey, a, b []expr.Value) int {
	for _, k := range keys {
		if c := cmpSortKey(k, a[k.Col], b[k.Col]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpSortKey(k SortKey, a, b expr.Value) int {
	c, _ := compareNullable(a, b)
	if k.Desc {
		return -c
	}
	return c
}

func compareNullable(a, b expr.Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	return expr.Compare(a, b)
}

// sortCheck decides whether an ORDER BY fails: expr.Compare orders strings
// only with strings, so a key column holding both a string and a
// non-string cannot be sorted. It reads values, not the pairs a sort
// algorithm happens to compare, so Sort and VecSort fail alike at any pool
// size. Per key: seen a string, seen a non-string.
type sortCheck [][2]bool

func (c sortCheck) observe(k int, v expr.Value) {
	if !v.IsNull() {
		str := v.K == expr.KindString
		c[k][0], c[k][1] = c[k][0] || str, c[k][1] || !str
	}
}

// observeVec records key k over a batch; a typed vector holds one class.
func (c sortCheck) observeVec(k int, v *Vector, sel []int) {
	for _, i := range sel {
		if !v.IsNull(i) {
			c.observe(k, v.Value(i))
			if v.Kind != anyKind {
				return
			}
		}
	}
}

func (c sortCheck) merge(o sortCheck) {
	for k := range c {
		c[k][0], c[k][1] = c[k][0] || o[k][0], c[k][1] || o[k][1]
	}
}

func (c sortCheck) err() error {
	for k, seen := range c {
		if seen[0] && seen[1] {
			return fmt.Errorf("exec: ORDER BY key %d holds both strings and non-strings", k+1)
		}
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	return s.Child.Close()
}

// Concat emits all rows of its children in order. Children must have
// identical column lists; the approximate query layer uses it to stitch a
// model scan over the covered region to a raw scan over the rest (the
// paper's "partial models" routing).
type Concat struct {
	Children []Operator
	idx      int
}

// Columns implements Operator.
func (c *Concat) Columns() []string {
	if len(c.Children) == 0 {
		return nil
	}
	return c.Children[0].Columns()
}

// Open implements Operator.
func (c *Concat) Open() error {
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
func (c *Concat) Next() (Row, error) {
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
func (c *Concat) Close() error {
	if c.idx < len(c.Children) {
		return c.Children[c.idx].Close()
	}
	return nil
}
