package exec

import (
	"fmt"

	"datalaws/internal/expr"
)

// Filter passes through rows for which Pred evaluates to TRUE.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Columns implements Node.
func (f *Filter) Columns() []string { return f.Child.Columns() }

// Project computes one output column per expression.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string
}

// Columns implements Node.
func (p *Project) Columns() []string { return p.Names }

// Limit stops after N rows.
type Limit struct {
	Child Node
	N     int
}

// Columns implements Node.
func (l *Limit) Columns() []string { return l.Child.Columns() }

// SortKey orders by a column index with direction.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders its input by Keys, ties in input order; NULLs sort first
// ascending (last descending). It lowers to VecSort.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Columns implements Node.
func (s *Sort) Columns() []string { return s.Child.Columns() }

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
// algorithm happens to compare, so the row reference and VecSort fail
// alike at any pool size. Per key: seen a string, seen a non-string.
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

// Concat emits all rows of its children in order. Children must have
// identical column lists; the approximate query layer uses it to stitch a
// model scan over the covered region to a raw scan over the rest (the
// paper's "partial models" routing).
type Concat struct {
	Children []Node
}

// Columns implements Node.
func (c *Concat) Columns() []string {
	if len(c.Children) == 0 {
		return nil
	}
	return c.Children[0].Columns()
}
