package exec

import (
	"datalaws/internal/expr"
	"datalaws/internal/table"
)

// Mode selects how BuildSelect lowers a plan.
type Mode uint8

const (
	// ModeAuto lowers a plan onto the batch (vectorized) pipeline when every
	// operator in a subtree supports it and falls back to row-at-a-time
	// execution otherwise.
	//
	// Batch execution evaluates expressions over whole batches (up to
	// BatchSize rows) before downstream operators consume them, so — as in
	// other vectorized engines — a runtime expression error (e.g. division
	// by zero) is raised even when early termination such as LIMIT would
	// have stopped a row-at-a-time plan before reaching the offending row.
	// Errors guarded by a preceding WHERE are unaffected: filters narrow
	// the selection before later kernels run.
	ModeAuto Mode = iota
	// ModeRow forces row-at-a-time execution; used for differential testing
	// and row-vs-batch benchmarks.
	ModeRow
)

// LowerOpts rewrites an operator tree so that every maximal vectorizable
// subtree executes in batch mode behind a row adapter, as worker pipelines
// under a gather (see parallel.go; workers is the budget). Joins and sorts
// are pipeline stages; an operator with an expression that has no batch
// kernel keeps its row form and pulls from the adapters.
func LowerOpts(op Operator, workers int) Operator {
	if v, ok := lowerVec(op, workers); ok {
		return NewRowAdapter(v)
	}
	// Still lower the inputs, so vectorizable subtrees run in batch mode.
	switch o := op.(type) {
	case *Limit:
		o.Child = LowerOpts(o.Child, workers)
	case *Sort:
		o.Child = LowerOpts(o.Child, workers)
	case *sliceOp:
		o.Child = LowerOpts(o.Child, workers)
	case *Filter:
		o.Child = LowerOpts(o.Child, workers)
	case *Project:
		o.Child = LowerOpts(o.Child, workers)
	case *HashAggregate:
		o.Child = LowerOpts(o.Child, workers)
	case *HashJoin:
		o.Left = LowerOpts(o.Left, workers)
		o.Right = LowerOpts(o.Right, workers)
	case *Concat:
		for i, c := range o.Children {
			o.Children[i] = LowerOpts(c, workers)
		}
	}
	return op
}

// lowerVec lowers a subtree onto the pipeline under one gather. A LIMIT on
// top lowers only when it bounds the sort beneath it; any other LIMIT keeps
// its row form, and its Close stops the gather's pool.
func lowerVec(op Operator, workers int) (VectorOperator, bool) {
	lim, limited := op.(*Limit)
	if limited {
		below := lim.Child
		if strip, ok := below.(*sliceOp); ok {
			below = strip.Child
		}
		if _, ok := below.(*Sort); !ok {
			return nil, false
		}
		op = lim.Child
	}
	pipes, ok := vectorize(op, workers)
	if !ok {
		return nil, false
	}
	if limited {
		sortStage(pipes).Limit = lim.N
	}
	return newVecGather(pipes), true
}

// vectorize lowers a row subtree to vector form: one copy of the subtree's
// pipeline per budgeted worker, over one shared morsel set. It reports false
// when an operator or expression in the subtree has no batch implementation.
// Sources that cannot split come back as a single one-morsel pipeline, and
// the pipeline breakers (aggregate, sort, concat) consume their input's
// pipelines and continue as one. A join puts its probe on every pipeline of
// its left input.
func vectorize(op Operator, workers int) ([]workerPipe, bool) {
	switch o := op.(type) {
	case *TableScan:
		shared := &tableMorsels{parts: []*table.Table{o.Table}, where: o.Where, alias: o.alias, cols: o.cols}
		return tablePipes(shared, workers), true
	case *PartitionScan:
		shared := &tableMorsels{parts: o.Parts, where: o.Where, alias: o.Parted.Name, cols: o.cols, from: o}
		return tablePipes(shared, workers), true
	case *ValuesScan:
		return onePipe(&VecValuesScan{Cols: o.Cols, Rows: o.Rows}), true
	case *Filter:
		pipes, ok := vectorize(o.Child, workers)
		if !ok || !hasKernels(pipes, o.Pred) {
			return nil, false
		}
		for i := range pipes {
			pipes[i].pipe = &VecFilter{Child: pipes[i].pipe, Pred: o.Pred}
		}
		return pipes, true
	case *Project:
		pipes, ok := vectorize(o.Child, workers)
		if !ok || !hasKernels(pipes, o.Exprs...) {
			return nil, false
		}
		for i := range pipes {
			pipes[i].pipe = &VecProject{Child: pipes[i].pipe, Exprs: o.Exprs, Names: o.Names}
		}
		return pipes, true
	case *HashAggregate:
		pipes, ok := vectorize(o.Child, workers)
		if !ok || !hasKernels(pipes, o.GroupExprs...) {
			return nil, false
		}
		for _, spec := range o.Aggs {
			if !hasKernels(pipes, spec.Arg) {
				return nil, false
			}
		}
		return onePipe(&VecHashAggregate{pipeSet: pipeSet{pipes: pipes}, GroupExprs: o.GroupExprs, Aggs: o.Aggs}), true
	case *HashJoin:
		left, ok := vectorize(o.Left, workers)
		if !ok {
			return nil, false
		}
		lk, rk, err := extractEquiKeys(o.On, o.Left.Columns(), o.Right.Columns())
		if err != nil {
			return nil, false // the row join reports it at Open
		}
		// The build side drains in one worker, before the probes start.
		right, ok := vectorize(o.Right, 1)
		if !ok {
			right = onePipe(NewBatchAdapter(LowerOpts(o.Right, workers)))
		}
		b := &joinBuild{On: o.On, right: newVecGather(right), cols: o.Columns(), leftKeys: lk, rightKeys: rk}
		for i := range left {
			left[i].pipe = &VecHashJoin{Child: left[i].pipe, build: b, lead: i == 0}
		}
		return left, true
	case *Sort:
		pipes, ok := vectorize(o.Child, workers)
		if !ok {
			return nil, false
		}
		return onePipe(&VecSort{pipeSet: pipeSet{pipes: pipes}, Keys: o.Keys, Limit: -1, Keep: len(o.Columns())}), true
	case *sliceOp:
		// Only ever above a sort: it drops the sort's trailing order keys.
		pipes, ok := vectorize(o.Child, workers)
		if !ok || sortStage(pipes) == nil {
			return nil, false
		}
		sortStage(pipes).Keep = o.N
		return pipes, true
	case *Concat:
		// Children run one worker each: the concat drains them one after
		// another, and the hybrid plans that use it (model scan ∪ raw scan)
		// keep each side small. Row-only children ride along behind the
		// row→batch shim.
		children := make([]VectorOperator, len(o.Children))
		any := false
		for i, c := range o.Children {
			if pipes, ok := vectorize(c, 1); ok {
				children[i] = newVecGather(pipes)
				any = true
			} else {
				children[i] = NewBatchAdapter(c)
			}
		}
		if !any {
			return nil, false
		}
		return onePipe(&VecConcat{Children: children}), true
	case MorselSplitter:
		srcs, ok := o.SplitMorsels(workers)
		if !ok {
			return nil, false
		}
		return pipesFromSources(srcs), true
	}
	return nil, false
}

// hasKernels reports whether every non-nil expression compiles to a batch
// kernel over the pipelines' output columns (nil is COUNT(*)'s argument).
func hasKernels(pipes []workerPipe, exprs ...expr.Expr) bool {
	cols := pipes[0].pipe.Columns()
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if _, err := compileKernel(e, cols); err != nil {
			return false
		}
	}
	return true
}

// Vectorized reports whether a lowered plan executes its pipeline in batch
// mode (possibly under row-mode sort/limit/strip wrappers). Exposed for
// tests and EXPLAIN consumers.
func Vectorized(op Operator) bool {
	switch o := op.(type) {
	case *Limit:
		return Vectorized(o.Child)
	case *Sort:
		return Vectorized(o.Child)
	case *sliceOp:
		return Vectorized(o.Child)
	case *rowAdapter:
		return true
	}
	return false
}
