package exec

import (
	"context"
)

// interruptStride is how many rows a leaf operator emits between context
// checks. Context errors are read behind a mutex, so per-row checks would
// dominate tight scan loops; one check per stride bounds cancellation
// latency to a batch-sized window while keeping the fast path branch-only.
const interruptStride = BatchSize

// ContextAware is implemented by operators that honor context cancellation.
// BindContext walks an operator tree and hands the statement context to
// every operator that implements it.
type ContextAware interface {
	SetContext(ctx context.Context)
}

// Interruptible is an embeddable cancellation hook for leaf operators (scans
// and generators). Leaves are where rows enter a plan, so checking there
// bounds how long any pipeline — including blocking operators that drain
// their child at Open, like Sort, HashAggregate and HashJoin — can outlive a
// canceled context.
type Interruptible struct {
	ctx   context.Context
	count int
}

// SetContext implements ContextAware.
func (in *Interruptible) SetContext(ctx context.Context) { in.ctx = ctx }

// Context returns the bound context (nil when the statement has none).
func (in *Interruptible) Context() context.Context { return in.ctx }

// ResetInterrupt restarts the stride counter; call it from Open so reopened
// operators check promptly.
func (in *Interruptible) ResetInterrupt() { in.count = 0 }

// CheckInterrupt returns the context's error once per stride of calls (and
// on the first call). Per-row loops call it every row; per-batch loops call
// CheckInterruptNow instead.
func (in *Interruptible) CheckInterrupt() error {
	if in.ctx == nil {
		return nil
	}
	if in.count%interruptStride == 0 {
		if err := in.ctx.Err(); err != nil {
			return err
		}
	}
	in.count++
	return nil
}

// CheckInterruptNow returns the context's error unconditionally.
func (in *Interruptible) CheckInterruptNow() error {
	if in.ctx == nil {
		return nil
	}
	return in.ctx.Err()
}

// BindContext attaches ctx to every ContextAware operator in a plan: a
// lowered plan's pipeline below the row adapter, or a row reference plan.
// Binding a nil or Background context is a no-op at execution time. It
// returns op for chaining.
func BindContext(op Operator, ctx context.Context) Operator {
	bindRowCtx(op, ctx)
	return op
}

func bindRowCtx(op Operator, ctx context.Context) {
	if ca, ok := op.(ContextAware); ok {
		ca.SetContext(ctx)
	}
	switch o := op.(type) {
	case *Filter:
		bindRowCtx(o.Child, ctx)
	case *Project:
		bindRowCtx(o.Child, ctx)
	case *Limit:
		bindRowCtx(o.Child, ctx)
	case *Sort:
		bindRowCtx(o.Child, ctx)
	case *sliceOp:
		bindRowCtx(o.Child, ctx)
	case *HashAggregate:
		bindRowCtx(o.Child, ctx)
	case *HashJoin:
		bindRowCtx(o.Left, ctx)
		bindRowCtx(o.Right, ctx)
	case *Concat:
		for _, c := range o.Children {
			bindRowCtx(c, ctx)
		}
	case *PartitionScan:
		// Child partition scans are built at Open and inherit the bound
		// context from the scan itself (ContextAware above).
	case *rowAdapter:
		bindVecCtx(o.V, ctx)
	}
}

func bindVecCtx(op VectorOperator, ctx context.Context) {
	if ca, ok := op.(ContextAware); ok {
		ca.SetContext(ctx)
	}
	switch o := op.(type) {
	case *VecFilter:
		bindVecCtx(o.Child, ctx)
	case *VecProject:
		bindVecCtx(o.Child, ctx)
	case *VecConcat:
		for _, c := range o.Children {
			bindVecCtx(c, ctx)
		}
	case *oneMorsel:
		bindVecCtx(o.VectorOperator, ctx)
	case *VecGather:
		// The gather watches the context in its claim loop and while
		// waiting on workers; each pipeline's leaf checks it independently,
		// so a canceled statement stops both the pool and the consumer.
		for i := range o.pipes {
			bindVecCtx(o.pipes[i].pipe, ctx)
		}
	case *VecHashAggregate:
		for i := range o.pipes {
			bindVecCtx(o.pipes[i].pipe, ctx)
		}
	case *VecSort:
		for i := range o.pipes {
			bindVecCtx(o.pipes[i].pipe, ctx)
		}
	case *VecHashJoin:
		bindVecCtx(o.Child, ctx)
		bindVecCtx(o.build.right, ctx)
	}
}
