package exec

import (
	"fmt"
	"strings"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/table"
)

// BuildSelect plans a parsed SELECT and lowers it onto the vectorized
// pipeline with a budget of workers (0 selects GOMAXPROCS; see Lower). A
// plan that cannot run fails here.
//
// A non-nil source replaces the FROM-table scan: the approximate query layer
// substitutes a model scan for the raw table scan while reusing the full
// relational pipeline on top (§4.2 zero-IO scans).
func BuildSelect(cat *table.Catalog, st *sql.SelectStmt, source Node, workers int) (Operator, error) {
	op, err := buildPlan(cat, st, source)
	if err != nil {
		return nil, err
	}
	return Lower(op, workers)
}

// buildPlan builds the logical plan of a parsed SELECT from plan nodes:
//
//	scan → joins → filter → [aggregate → having] → project(+order keys)
//	     → sort → strip order keys → limit
//
// Lower runs it as a pipeline.
func buildPlan(cat *table.Catalog, st *sql.SelectStmt, source Node) (Node, error) {
	base, err := buildFrom(cat, st, source)
	if err != nil {
		return nil, err
	}
	if st.Where != nil {
		base = &Filter{Child: base, Pred: st.Where}
	}

	items, err := expandStars(st.Items, base.Columns())
	if err != nil {
		return nil, err
	}

	agg := newAggAnalysis(st.GroupBy)
	rewrittenItems := make([]expr.Expr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		rewrittenItems[i] = agg.rewrite(it.Expr)
		names[i] = itemName(it)
	}
	var having expr.Expr
	if st.Having != nil {
		having = agg.rewrite(st.Having)
	}

	// ORDER BY may reference select aliases; substitute those first.
	aliasSubs := map[string]expr.Expr{}
	for i, it := range items {
		if it.Alias != "" {
			aliasSubs[it.Alias] = items[i].Expr
		}
	}
	orderExprs := make([]expr.Expr, len(st.OrderBy))
	for i, k := range st.OrderBy {
		oe := k.Expr
		if id, ok := oe.(*expr.Ident); ok {
			if sub, ok := aliasSubs[id.Name]; ok {
				oe = sub
			}
		}
		orderExprs[i] = agg.rewrite(oe)
	}

	grouped := len(st.GroupBy) > 0 || len(agg.specs) > 0
	if grouped {
		// Every non-aggregate identifier must resolve to a group key.
		for i, e := range rewrittenItems {
			if err := agg.validate(e); err != nil {
				return nil, fmt.Errorf("exec: select item %d: %w", i+1, err)
			}
		}
		if having != nil {
			if err := agg.validate(having); err != nil {
				return nil, fmt.Errorf("exec: HAVING: %w", err)
			}
		}
		for i, e := range orderExprs {
			if err := agg.validate(e); err != nil {
				return nil, fmt.Errorf("exec: ORDER BY key %d: %w", i+1, err)
			}
		}
		base = &HashAggregate{Child: base, GroupExprs: st.GroupBy, Aggs: agg.specs}
		if having != nil {
			base = &Filter{Child: base, Pred: having}
		}
	} else if st.Having != nil {
		return nil, fmt.Errorf("exec: HAVING without GROUP BY or aggregates")
	}

	// Project the visible items plus hidden order keys.
	projExprs := append([]expr.Expr{}, rewrittenItems...)
	projNames := append([]string{}, names...)
	for i, oe := range orderExprs {
		projExprs = append(projExprs, oe)
		projNames = append(projNames, fmt.Sprintf("$ord%d", i))
	}
	var op Node = &Project{Child: base, Exprs: projExprs, Names: projNames}

	if len(orderExprs) > 0 {
		keys := make([]SortKey, len(orderExprs))
		for i := range orderExprs {
			keys[i] = SortKey{Col: len(items) + i, Desc: st.OrderBy[i].Desc}
		}
		op = &Sort{Child: op, Keys: keys}
		op = &sliceOp{Child: op, N: len(items)}
	}
	if st.Limit >= 0 {
		op = &Limit{Child: op, N: st.Limit}
	}
	return op, nil
}

func buildFrom(cat *table.Catalog, st *sql.SelectStmt, source Node) (Node, error) {
	var op Node
	if source != nil {
		op = source
	} else {
		s, err := buildScan(cat, st.From, st.Where)
		if err != nil {
			return nil, err
		}
		op = s
	}
	for _, j := range st.Joins {
		// Pruning the right side by the statement's WHERE is sound for inner
		// joins: a conjunct restricting this table's partition column must
		// hold on every joined result row.
		right, err := buildScan(cat, j.Table, st.Where)
		if err != nil {
			return nil, err
		}
		op = &HashJoin{Left: op, Right: right, On: j.On}
	}
	return op, nil
}

// buildScan builds the base scan for a named table: a pruned PartitionScan
// for range-partitioned tables, a plain TableScan otherwise.
func buildScan(cat *table.Catalog, name string, where expr.Expr) (Node, error) {
	if pt, ok := cat.GetPartitioned(name); ok {
		return NewPartitionScan(pt, where), nil
	}
	t, err := cat.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	ts := NewTableScan(t)
	ts.Where = where
	return ts, nil
}

func expandStars(items []sql.SelectItem, cols []string) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range cols {
			name := c
			if i := strings.LastIndexByte(c, '.'); i >= 0 {
				name = c[i+1:]
			}
			out = append(out, sql.SelectItem{Expr: &expr.Ident{Name: c}, Alias: name})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exec: empty select list")
	}
	return out, nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.Expr.(*expr.Ident); ok {
		if i := strings.LastIndexByte(id.Name, '.'); i >= 0 {
			return id.Name[i+1:]
		}
		return id.Name
	}
	return it.Expr.String()
}

// aggAnalysis rewrites expressions for execution above a HashAggregate:
// aggregate calls become $aggN references and group-key subtrees become
// $grpN references.
type aggAnalysis struct {
	groupByStr []string
	specs      []AggSpec
	specIndex  map[string]int
}

func newAggAnalysis(groupBy []expr.Expr) *aggAnalysis {
	a := &aggAnalysis{specIndex: map[string]int{}}
	for _, g := range groupBy {
		a.groupByStr = append(a.groupByStr, g.String())
	}
	return a
}

func (a *aggAnalysis) rewrite(e expr.Expr) expr.Expr {
	// Group-key match takes precedence so "GROUP BY x ... SELECT x" works.
	es := e.String()
	for i, g := range a.groupByStr {
		if es == g {
			return &expr.Ident{Name: fmt.Sprintf("$grp%d", i)}
		}
	}
	switch n := e.(type) {
	case *expr.Call:
		if kind, ok := IsAggregateCall(n); ok {
			var arg expr.Expr
			if len(n.Args) == 1 {
				arg = n.Args[0]
			}
			key := fmt.Sprintf("%d|%s", kind, n.String())
			idx, seen := a.specIndex[key]
			if !seen {
				idx = len(a.specs)
				a.specs = append(a.specs, AggSpec{Kind: kind, Arg: arg})
				a.specIndex[key] = idx
			}
			return &expr.Ident{Name: fmt.Sprintf("$agg%d", idx)}
		}
		args := make([]expr.Expr, len(n.Args))
		for i, arg := range n.Args {
			args[i] = a.rewrite(arg)
		}
		return &expr.Call{Name: n.Name, Args: args}
	case *expr.Unary:
		return &expr.Unary{Op: n.Op, X: a.rewrite(n.X)}
	case *expr.Binary:
		return &expr.Binary{Op: n.Op, L: a.rewrite(n.L), R: a.rewrite(n.R)}
	case *expr.IsNullExpr:
		return &expr.IsNullExpr{X: a.rewrite(n.X), Negate: n.Negate}
	}
	return e
}

// validate ensures a rewritten expression references only $grp/$agg columns.
func (a *aggAnalysis) validate(e expr.Expr) error {
	for _, v := range expr.Vars(e) {
		if !strings.HasPrefix(v, "$grp") && !strings.HasPrefix(v, "$agg") {
			return fmt.Errorf("column %q must appear in GROUP BY or inside an aggregate", v)
		}
	}
	return nil
}

// sliceOp keeps only the first N columns of each row (dropping hidden sort
// keys).
type sliceOp struct {
	Child Node
	N     int
}

func (s *sliceOp) Columns() []string { return s.Child.Columns()[:s.N] }
