package exec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"datalaws/internal/expr"
	"datalaws/internal/table"
)

// Lower lowers a logical plan onto the vectorized pipeline: one copy of the
// plan's pipeline per budgeted worker (0 selects GOMAXPROCS) under one
// gather, behind the row adapter that is the statement's cursor (see
// parallel.go). A LIMIT caps the sort beneath it, or else the gather, whose
// Close stops the pool.
//
// Every plan node and expression has a batch form, so lowering is total: a
// plan that cannot run fails here, with the error the row reference gives
// for it (an unknown column or function, a join condition that is not an
// equality). As in other vectorized engines, a runtime expression error
// (e.g. division by zero) is raised for a whole batch, even when a LIMIT
// would have stopped a row-at-a-time plan before the offending row; errors
// guarded by a preceding WHERE are unaffected, because filters narrow the
// selection before later kernels run.
func Lower(op Node, workers int) (Operator, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(workers, 1)
	limit := -1
	if l, ok := op.(*Limit); ok {
		op, limit = l.Child, l.N
	}
	pipes, err := vectorize(op, workers, reads{vars: planVars(make([]string, 0, 8), op), whole: true})
	if err != nil {
		return nil, err
	}
	g := newVecGather(pipes)
	if s := sortStage(pipes); s != nil {
		s.Limit = limit
	} else {
		g.limit = limit
	}
	return &rowAdapter{V: g}, nil
}

// reads is what the plan needs of a subtree's base-table columns: vars
// holds every name the whole plan's expressions reference, and whole marks
// a subtree whose rows reach the plan's output, or a sort's row copy, as
// they are. A projection or an aggregate above a subtree reads it only
// through its expressions.
type reads struct {
	vars  []string
	whole bool
}

// cut is r below an operator that reads its input only through expressions.
func (r reads) cut() reads { return reads{vars: r.vars} }

// need returns the positions in cols (a scan's qualified "alias.column"
// names) the plan may read: all of them under whole, else those a var names
// by qualified name or bare suffix. That is ResolveColumn's rule widened to
// every match, so a column any kernel can resolve is read, and a column no
// var names is not.
func (r reads) need(cols []string) []int {
	need := make([]int, 0, len(cols))
	for i, c := range cols {
		bare := c[strings.LastIndexByte(c, '.')+1:]
		if r.whole || slices.Contains(r.vars, c) || slices.Contains(r.vars, bare) {
			need = append(need, i)
		}
	}
	return need
}

// planVars appends the names every expression of the plan references.
func planVars(dst []string, op Node) []string {
	switch o := op.(type) {
	case *Filter:
		return planVars(expr.AppendVars(dst, o.Pred), o.Child)
	case *Project:
		for _, e := range o.Exprs {
			dst = expr.AppendVars(dst, e)
		}
		return planVars(dst, o.Child)
	case *HashAggregate:
		for _, e := range o.GroupExprs {
			dst = expr.AppendVars(dst, e)
		}
		for _, a := range o.Aggs {
			dst = expr.AppendVars(dst, a.Arg)
		}
		return planVars(dst, o.Child)
	case *HashJoin:
		return planVars(planVars(expr.AppendVars(dst, o.On), o.Left), o.Right)
	case *Concat:
		for _, c := range o.Children {
			dst = planVars(dst, c)
		}
	case *Sort:
		return planVars(dst, o.Child)
	case *sliceOp:
		return planVars(dst, o.Child)
	}
	return dst
}

// vectorize lowers a plan subtree to vector form: one copy of the subtree's
// pipeline per budgeted worker, over one shared morsel set. Every kernel is
// compiled here once, so a subtree that cannot run fails at plan time.
// Sources that cannot split come back as a single one-morsel pipeline, and
// the pipeline breakers (aggregate, sort, concat) consume their input's
// pipelines and continue as one. A join puts its probe on every pipeline of
// its left input. Table scans read only the columns r says the plan needs.
func vectorize(op Node, workers int, r reads) ([]workerPipe, error) {
	switch o := op.(type) {
	case *TableScan:
		shared := &tableMorsels{parts: []*table.Table{o.Table}, where: o.Where, alias: o.alias, cols: o.cols, need: r.need(o.cols)}
		return tablePipes(shared, workers), nil
	case *PartitionScan:
		shared := &tableMorsels{parts: o.Parts, where: o.Where, alias: o.Parted.Name, cols: o.cols, need: r.need(o.cols), from: o}
		return tablePipes(shared, workers), nil
	case *ValuesScan:
		return onePipe(&VecValuesScan{Cols: o.Cols, Rows: o.Rows}), nil
	case *Filter:
		pipes, err := vectorize(o.Child, workers, r)
		if err != nil {
			return nil, err
		}
		if _, err := whereKernel(o.Pred, pipes[0].pipe.Columns()); err != nil {
			return nil, err
		}
		for i := range pipes {
			pipes[i].pipe = &VecFilter{Child: pipes[i].pipe, Pred: o.Pred}
		}
		return pipes, nil
	case *Project:
		pipes, err := vectorize(o.Child, workers, r.cut())
		if err != nil {
			return nil, err
		}
		for _, e := range o.Exprs {
			if _, err := projectKernel(e, pipes[0].pipe.Columns()); err != nil {
				return nil, err
			}
		}
		for i := range pipes {
			pipes[i].pipe = &VecProject{Child: pipes[i].pipe, Exprs: o.Exprs, Names: o.Names}
		}
		return pipes, nil
	case *HashAggregate:
		pipes, err := vectorize(o.Child, workers, r.cut())
		if err != nil {
			return nil, err
		}
		if err := compileAgg(o.GroupExprs, o.Aggs, pipes[0].pipe.Columns(), nil, nil); err != nil {
			return nil, err
		}
		return onePipe(&VecHashAggregate{pipeSet: pipeSet{pipes: pipes}, GroupExprs: o.GroupExprs, Aggs: o.Aggs}), nil
	case *HashJoin:
		left, err := vectorize(o.Left, workers, r)
		if err != nil {
			return nil, err
		}
		lk, rk, err := extractEquiKeys(o.On, o.Left.Columns(), o.Right.Columns())
		if err != nil {
			return nil, err
		}
		// The build side drains in one worker, before the probes start.
		right, err := vectorize(o.Right, 1, r)
		if err != nil {
			return nil, err
		}
		b := &joinBuild{On: o.On, right: newVecGather(right), cols: o.Columns(), leftKeys: lk, rightKeys: rk}
		for i := range left {
			left[i].pipe = &VecHashJoin{Child: left[i].pipe, build: b, lead: i == 0}
		}
		return left, nil
	case *Sort:
		// The sort copies whole rows of its input.
		pipes, err := vectorize(o.Child, workers, reads{vars: r.vars, whole: true})
		if err != nil {
			return nil, err
		}
		return onePipe(&VecSort{pipeSet: pipeSet{pipes: pipes}, Keys: o.Keys, Limit: -1, Keep: len(o.Columns())}), nil
	case *sliceOp:
		// Only ever above a sort: it drops the sort's trailing order keys.
		pipes, err := vectorize(o.Child, workers, r)
		if err != nil {
			return nil, err
		}
		sortStage(pipes).Keep = o.N
		return pipes, nil
	case *Concat:
		// Children run one worker each: the concat drains them one after
		// another, and the hybrid plans that use it (model scan ∪ raw scan)
		// keep each side small.
		children := make([]VectorOperator, len(o.Children))
		for i, c := range o.Children {
			pipes, err := vectorize(c, 1, r)
			if err != nil {
				return nil, err
			}
			children[i] = newVecGather(pipes)
		}
		return onePipe(&VecConcat{Children: children}), nil
	case MorselSplitter:
		srcs, err := o.SplitMorsels(workers)
		if err != nil {
			return nil, err
		}
		return pipesFromSources(srcs), nil
	}
	return nil, fmt.Errorf("exec: %T has no batch form", op)
}

// rowError gives a kernel that does not compile the error the row reference
// gives for the same expression: an ambiguous column as its Open does,
// anything else (an unknown column or function) as its per-row evaluation
// does, under the node's context.
func rowError(err error, context string) error {
	if errors.Is(err, ErrAmbiguous) {
		return err
	}
	return fmt.Errorf("%s: %w", context, err)
}
