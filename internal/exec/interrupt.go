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
// BindContext walks a lowered plan and hands the statement context to every
// operator that implements it.
type ContextAware interface {
	SetContext(ctx context.Context)
}

// Interruptible is an embeddable cancellation hook for leaf operators (scans
// and generators). Leaves are where rows enter a plan, so checking there
// bounds how long any pipeline — including the breakers that drain their
// input at Open, like VecSort, VecHashAggregate and a join's build — can
// outlive a canceled context.
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

// BindContext attaches ctx to every ContextAware operator of a lowered
// plan's pipeline; any other cursor (aqp's point lookup) reads no input to
// interrupt. Binding a nil or Background context is a no-op at execution
// time. It returns op for chaining.
func BindContext(op Operator, ctx context.Context) Operator {
	if a, ok := op.(*rowAdapter); ok {
		bindVecCtx(a.V, ctx)
	}
	return op
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
