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
// Columns the plan does not read arrive absent (nil) on either side; the
// build skips them and the output leaves them absent.
type VecHashJoin struct {
	Child VectorOperator // this worker's probe (left) pipeline
	build *joinBuild
	lead  bool // worker 0 drains the build side
	Interruptible

	in         *Batch // current left batch
	sel        []int
	hs         []uint64 // key hashes of the rows of sel
	null       []bool   // rows of sel with a NULL key
	pos        int      // next left row, as an index into sel
	cand       int32    // next build candidate for sel[pos-1]; -1 when none
	lidx, ridx []int    // pending output pairs
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
	rows := 0
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
			if v == nil {
				continue
			}
			for _, i := range bt.selection() {
				vals[c] = append(vals[c], v.Value(i))
			}
		}
		rows += bt.NumRows()
	}
	if err := b.right.Close(); err != nil {
		return err
	}
	// An absent column collects no values and stays absent. So does every
	// column of an empty build side, which can match no probe row.
	b.vecs = make([]*Vector, len(vals))
	for c := range vals {
		if vals[c] != nil {
			b.vecs[c] = vectorFromValues(vals[c])
		}
	}
	if rows > 0 {
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		hs, null := make([]uint64, rows), make([]bool, rows)
		hashJoinKeys(b.vecs, b.rightKeys, all, hs, null)
		b.index = newJoinIndex(hs, null)
	}
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
			if j.keysMatch(li, r) {
				j.lidx = append(j.lidx, li)
				j.ridx = append(j.ridx, r)
			}
			continue
		}
		if j.in != nil && j.pos < len(j.sel) {
			if p := j.pos; !j.null[p] {
				j.cand = b.index.head[j.hs[p]] - 1
			}
			j.pos++
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
		n := len(j.sel)
		if cap(j.hs) < n {
			j.hs, j.null = make([]uint64, n), make([]bool, n)
		}
		j.hs, j.null = j.hs[:n], j.null[:n]
		hashJoinKeys(in.Cols, b.leftKeys, j.sel, j.hs, j.null)
	}
	n := len(j.lidx)
	out := &Batch{N: n, Cols: make([]*Vector, len(b.cols))}
	for c, v := range j.in.Cols {
		if v != nil {
			out.Cols[c] = compactVector(v, j.lidx, n, false)
		}
	}
	for c, v := range b.vecs {
		if v != nil {
			out.Cols[len(j.in.Cols)+c] = compactVector(v, j.ridx, n, false)
		}
	}
	return out, nil
}

// keysMatch confirms that left row li and build row r, a hash candidate
// whose keys are not NULL, join: INT against INT and DOUBLE against DOUBLE
// compare typed, any other pair by joinKeyEqual.
func (j *VecHashJoin) keysMatch(li, r int) bool {
	b := j.build
	for k, lc := range b.leftKeys {
		lv, rv := j.in.Cols[lc], b.vecs[b.rightKeys[k]]
		switch {
		case lv.Kind == expr.KindInt && rv.Kind == expr.KindInt:
			if lv.I[li] != rv.I[r] {
				return false
			}
		case lv.Kind == expr.KindFloat && rv.Kind == expr.KindFloat:
			if order(lv.F[li], rv.F[r]) != 0 {
				return false
			}
		default:
			if !joinKeyEqual(lv.Value(li), rv.Value(r)) {
				return false
			}
		}
	}
	return true
}

// Close implements VectorOperator. The lead releases the build side; the
// pool has stopped by the time pipelines close.
func (j *VecHashJoin) Close() error {
	j.in, j.sel, j.hs, j.null = nil, nil, nil, nil
	if j.lead {
		j.build.vecs, j.build.index = nil, joinIndex{}
	}
	return j.Child.Close()
}
