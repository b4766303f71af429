package exec

import (
	"datalaws/internal/expr"
)

// VecHashJoin is the inner equi-join's probe, one on every worker pipeline,
// over a shared read-only build side: the right input, drained once per
// execution by the first worker while it opens (before the others) into
// typed vectors plus a joinIndex. Output is gathered column-wise, left then
// right, in (left row, build order) — HashJoin's order, so VecGather keeps
// results identical to the row reference at any pool size — at most
// BatchSize rows a batch, a left row's remaining matches carrying over.
type VecHashJoin struct {
	Child VectorOperator // this worker's probe (left) pipeline
	build *joinBuild
	lead  bool // worker 0 drains the build side
	Interruptible

	in         *Batch // current left batch
	sel        []int
	pos        int   // next left row, as an index into sel
	cand       int32 // next build candidate for sel[pos-1]; -1 when none
	lidx, ridx []int // pending output pairs
}

// joinBuild is the build side the probes of one join share.
type joinBuild struct {
	On                  expr.Expr
	right               *VecGather // one pipeline: drained in the lead's Open
	cols                []string
	leftKeys, rightKeys []int

	vecs  []*Vector
	index joinIndex
}

// Columns implements VectorOperator.
func (j *VecHashJoin) Columns() []string { return j.build.cols }

// Open implements VectorOperator.
func (j *VecHashJoin) Open() error {
	if j.lead {
		if err := j.build.load(); err != nil {
			return err
		}
	}
	j.in, j.sel, j.pos, j.cand = nil, nil, 0, -1
	return j.Child.Open()
}

// load drains and indexes the right input; a failed drain closes it.
func (b *joinBuild) load() error {
	b.vecs, b.index = nil, joinIndex{}
	if err := b.right.Open(); err != nil {
		return err
	}
	vals := make([][]expr.Value, len(b.right.Columns()))
	for {
		bt, err := b.right.NextBatch()
		if err != nil {
			b.right.Close()
			return err
		}
		if bt == nil {
			break
		}
		for c, v := range bt.Cols {
			for _, i := range bt.selection() {
				vals[c] = append(vals[c], v.Value(i))
			}
		}
	}
	if err := b.right.Close(); err != nil {
		return err
	}
	b.vecs = make([]*Vector, len(vals))
	for c := range vals {
		b.vecs[c] = vectorFromValues(vals[c])
	}
	b.index = newJoinIndex(len(vals[0]), func(r int) (uint64, bool) {
		return keyHash(b.rightKeys, func(c int) expr.Value { return b.vecs[c].Value(r) })
	})
	return nil
}

// NextBatch implements VectorOperator, returning nil at the end of the
// current morsel.
func (j *VecHashJoin) NextBatch() (*Batch, error) {
	if err := j.CheckInterruptNow(); err != nil {
		return nil, err
	}
	b := j.build
	j.lidx, j.ridx = j.lidx[:0], j.ridx[:0]
	for len(j.lidx) < BatchSize {
		if j.cand >= 0 {
			r, li := int(j.cand), j.sel[j.pos-1]
			j.cand = b.index.next[r]
			if keysEqual(b.leftKeys, b.rightKeys, j.left(li), func(c int) expr.Value { return b.vecs[c].Value(r) }) {
				j.lidx = append(j.lidx, li)
				j.ridx = append(j.ridx, r)
			}
			continue
		}
		if j.in != nil && j.pos < len(j.sel) {
			li := j.sel[j.pos]
			j.pos++
			if h, ok := keyHash(b.leftKeys, j.left(li)); ok {
				j.cand = b.index.head[h] - 1
			}
			continue
		}
		// Output gathers from the current left batch: emit before pulling.
		if len(j.lidx) > 0 {
			break
		}
		in, err := j.Child.NextBatch()
		if err != nil || in == nil {
			j.in = nil
			return nil, err
		}
		j.in, j.sel, j.pos = in, in.selection(), 0
	}
	n := len(j.lidx)
	out := &Batch{N: n, Cols: make([]*Vector, 0, len(b.cols))}
	for _, v := range j.in.Cols {
		out.Cols = append(out.Cols, compactVector(v, j.lidx, n, false))
	}
	for _, v := range b.vecs {
		out.Cols = append(out.Cols, compactVector(v, j.ridx, n, false))
	}
	return out, nil
}

// left reads columns of row i of the current left batch.
func (j *VecHashJoin) left(i int) func(int) expr.Value {
	return func(c int) expr.Value { return j.in.Cols[c].Value(i) }
}

// Close implements VectorOperator. The lead releases the build side; the
// pool has stopped by the time pipelines close.
func (j *VecHashJoin) Close() error {
	j.in, j.sel = nil, nil
	if j.lead {
		j.build.vecs, j.build.index = nil, joinIndex{}
	}
	return j.Child.Close()
}
