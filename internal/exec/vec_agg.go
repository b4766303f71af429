package exec

import (
	"fmt"
	"math/bits"
	"sort"

	"datalaws/internal/expr"
)

// VecHashAggregate is the vectorized hash aggregate. Group keys and aggregate
// arguments are evaluated once per batch through compiled kernels (no
// per-row expression trees, no per-identifier map lookups) and folded into
// the same aggState machinery as the row reference. It runs in two phases:
// every worker of the pool folds its morsels into a private partial-aggregate
// table (no locks on the data path), then a single merge recombines the
// partial states — COUNT/SUM/AVG additively, MIN/MAX by comparison,
// VAR/STDDEV through the Welford combination — preserving SQL NULL semantics
// (aggregates skip NULLs; empty inputs yield NULL, except COUNT). Groups are
// emitted in the order an in-order scan first sees them, tracked as the
// minimum (morsel, row-within-morsel) position across workers, so output
// order does not depend on the pool size. Worker 0 is the caller itself, so a
// pool of one starts no goroutine and has nothing to recombine. Output
// columns are "$grp0…" followed by "$agg0…", like HashAggregate.
type VecHashAggregate struct {
	pipeSet
	GroupExprs []expr.Expr
	Aggs       []AggSpec

	cols   []string
	groups []*aggGroup
	pos    int
}

// Columns implements VectorOperator.
func (h *VecHashAggregate) Columns() []string {
	if h.cols == nil {
		h.cols = aggOutputCols(len(h.GroupExprs), len(h.Aggs))
	}
	return h.cols
}

// Open implements VectorOperator: it runs the full two-phase aggregation —
// partial fold per worker, then merge — so NextBatch only emits results. A
// failed Open leaves no pipeline open.
func (h *VecHashAggregate) Open() error {
	h.groups, h.pos = nil, 0
	return h.openRun(h.aggregate)
}

// aggregate folds the pool's pipelines into one partial table per worker and
// merges them.
func (h *VecHashAggregate) aggregate() error {
	partials := make([]*partialAgg, h.n)
	err := h.runPool(func(w int) partialErr {
		pa, err := newPartialAgg(h.GroupExprs, h.Aggs, h.pipes[w].pipe.Columns())
		if err != nil {
			return partialErr{err: err}
		}
		partials[w] = pa
		return h.drain(h.pipes[w], pa.fold)
	})
	if err != nil {
		return err
	}
	return h.merge(partials)
}

// merge recombines the workers' partial tables into the final group list.
func (h *VecHashAggregate) merge(partials []*partialAgg) error {
	if len(partials) == 1 {
		// A pool of one saw every row in order: its table is the result.
		return h.finish(partials[0].order)
	}
	index := make(map[string]*partialGroup)
	var merged []*partialGroup
	for _, pa := range partials {
		for _, pg := range pa.order {
			ex, ok := index[pg.keyStr]
			if !ok {
				index[pg.keyStr] = pg
				merged = append(merged, pg)
				continue
			}
			for a := range h.Aggs {
				if err := ex.states[a].merge(&pg.states[a], h.Aggs[a].Kind); err != nil {
					return fmt.Errorf("exec: aggregate: %w", err)
				}
			}
			if pg.morsel < ex.morsel || (pg.morsel == ex.morsel && pg.row < ex.row) {
				// The group's key is the value of its first row in input order.
				ex.key, ex.morsel, ex.row = pg.key, pg.morsel, pg.row
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].morsel != merged[j].morsel {
			return merged[i].morsel < merged[j].morsel
		}
		return merged[i].row < merged[j].row
	})
	return h.finish(merged)
}

// finish publishes the final group list.
func (h *VecHashAggregate) finish(merged []*partialGroup) error {
	h.groups = make([]*aggGroup, len(merged))
	for i, pg := range merged {
		h.groups[i] = &pg.aggGroup
	}
	// A global aggregate over zero rows still yields one output row.
	if len(h.groups) == 0 && len(h.GroupExprs) == 0 {
		h.groups = append(h.groups, &aggGroup{states: make([]aggState, len(h.Aggs))})
	}
	return nil
}

// NextBatch implements VectorOperator, emitting the merged groups.
func (h *VecHashAggregate) NextBatch() (*Batch, error) {
	if h.pos >= len(h.groups) {
		return nil, nil
	}
	lo := h.pos
	hi := lo + BatchSize
	if hi > len(h.groups) {
		hi = len(h.groups)
	}
	h.pos = hi
	return emitGroupBatch(h.groups, lo, hi, len(h.GroupExprs), h.Aggs), nil
}

// Close implements VectorOperator.
func (h *VecHashAggregate) Close() error {
	h.groups = nil
	return h.pipeSet.close()
}

// partialGroup is one group's partial state plus the earliest input
// position any of its rows was seen at (for deterministic output order).
type partialGroup struct {
	aggGroup
	keyStr      string
	morsel, row int64
}

// partialAgg is one worker's aggregation state: compiled kernels plus the
// group table it folds morsels into.
type partialAgg struct {
	aggs       []AggSpec
	groupKerns []kernelFn
	argKerns   []kernelFn
	index      map[string]*partialGroup
	order      []*partialGroup
	keyVecs    []*Vector
	argVecs    []*Vector
	grps       []*aggGroup // the group of each row of the batch being folded
	kb         []byte
	ints       intGroups
}

func newPartialAgg(groupExprs []expr.Expr, aggs []AggSpec, cols []string) (*partialAgg, error) {
	pa := &partialAgg{
		aggs:       aggs,
		groupKerns: make([]kernelFn, len(groupExprs)),
		argKerns:   make([]kernelFn, len(aggs)),
		index:      map[string]*partialGroup{},
		keyVecs:    make([]*Vector, len(groupExprs)),
		argVecs:    make([]*Vector, len(aggs)),
	}
	if len(groupExprs) > 0 {
		pa.grps = make([]*aggGroup, 0, BatchSize)
	}
	if err := compileAgg(groupExprs, aggs, cols, pa.groupKerns, pa.argKerns); err != nil {
		return nil, err
	}
	return pa, nil
}

// compileAgg compiles an aggregate's group-key and argument kernels into
// groupKerns and argKerns (COUNT(*) has none); a failure reads as the row
// HashAggregate's. The planner passes nil slices, to check only.
func compileAgg(groupExprs []expr.Expr, aggs []AggSpec, cols []string, groupKerns, argKerns []kernelFn) error {
	for i, g := range groupExprs {
		k, err := compileKernel(g, cols)
		if err != nil {
			return rowError(err, "exec: GROUP BY")
		}
		if groupKerns != nil {
			groupKerns[i] = k
		}
	}
	for i, spec := range aggs {
		if spec.Arg == nil {
			continue // COUNT(*) needs no argument kernel
		}
		k, err := compileKernel(spec.Arg, cols)
		if err != nil {
			return rowError(err, "exec: aggregate arg")
		}
		if argKerns != nil {
			argKerns[i] = k
		}
	}
	return nil
}

// fold accumulates one batch. morsel and rowBase locate the batch's first
// selected row in the input order.
func (pa *partialAgg) fold(b *Batch, sel []int, morsel, rowBase int64) error {
	for i, k := range pa.groupKerns {
		v, err := k(b, sel)
		if err != nil {
			return fmt.Errorf("exec: GROUP BY: %w", err)
		}
		pa.keyVecs[i] = v
	}
	for i, k := range pa.argKerns {
		if k == nil {
			continue
		}
		v, err := k(b, sel)
		if err != nil {
			return fmt.Errorf("exec: aggregate arg: %w", err)
		}
		pa.argVecs[i] = v
	}
	if len(pa.groupKerns) == 0 {
		// Global aggregation: every row folds into the one group.
		if len(pa.order) == 0 {
			grp := &partialGroup{morsel: morsel, row: rowBase}
			grp.states = make([]aggState, len(pa.aggs))
			pa.order = append(pa.order, grp)
		}
		return foldGlobal(pa.order[0].states, pa.aggs, pa.argVecs, sel)
	}
	var ints *Vector
	if len(pa.keyVecs) == 1 && pa.keyVecs[0].Kind == expr.KindInt {
		ints = pa.keyVecs[0]
	}
	grps := pa.grps[:0]
	for pos, i := range sel {
		var grp *partialGroup
		indexed := ints != nil && (ints.Null == nil || !ints.Null[i])
		if indexed {
			grp = pa.ints.find(ints.I[i])
		}
		if grp == nil {
			grp = pa.group(i, morsel, rowBase+int64(pos))
			if indexed {
				pa.ints.insert(ints.I[i], grp)
			}
		}
		grps = append(grps, &grp.aggGroup)
	}
	pa.grps = grps
	return foldAggArgs(grps, pa.aggs, pa.argVecs, sel)
}

// intGroups caches the groups of a single integer key column by value,
// ahead of the rendered-key index: open addressing over parallel keys and
// vals slices, a power-of-two size, linear probing and a multiplicative
// hash. A nil val marks an empty slot.
type intGroups struct {
	keys  []int64
	vals  []*partialGroup
	shift uint // 64 − log2(len(keys))
	n     int
}

func (t *intGroups) slot(k int64) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the group of key k, or nil.
func (t *intGroups) find(k int64) *partialGroup {
	if t.n == 0 {
		return nil
	}
	mask := len(t.keys) - 1
	for s := t.slot(k); t.vals[s] != nil; s = (s + 1) & mask {
		if t.keys[s] == k {
			return t.vals[s]
		}
	}
	return nil
}

// insert adds key k, which is absent, growing the table to keep it at
// most half full.
func (t *intGroups) insert(k int64, g *partialGroup) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	s := t.slot(k)
	for t.vals[s] != nil {
		s = (s + 1) & mask
	}
	t.keys[s], t.vals[s] = k, g
	t.n++
}

func (t *intGroups) grow() {
	keys, vals := t.keys, t.vals
	size := 2 * len(keys)
	if size == 0 {
		size = 64
	}
	t.keys, t.vals, t.n = make([]int64, size), make([]*partialGroup, size), 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for s, g := range vals {
		if g != nil {
			t.insert(keys[s], g)
		}
	}
}

// group finds or creates the group of row i by its rendered key, the
// group's identity across key kinds and workers.
func (pa *partialAgg) group(i int, morsel, row int64) *partialGroup {
	kb := pa.kb[:0]
	for _, kv := range pa.keyVecs {
		kb = appendGroupKey(kb, kv.Value(i))
	}
	pa.kb = kb
	if grp, ok := pa.index[string(kb)]; ok {
		return grp
	}
	key := make([]expr.Value, len(pa.keyVecs))
	for j, kv := range pa.keyVecs {
		key[j] = kv.Value(i)
	}
	grp := &partialGroup{keyStr: string(kb), morsel: morsel, row: row}
	grp.key = key
	grp.states = make([]aggState, len(pa.aggs))
	pa.index[grp.keyStr] = grp
	pa.order = append(pa.order, grp)
	return grp
}

// foldAggArgs folds a batch's aggregate argument vectors into the states
// of the rows' groups, grps[pos] for row sel[pos], one aggregate at a time.
// COUNT/SUM/AVG/VAR/STDDEV read float and int vectors directly; MIN/MAX and
// arguments of other kinds take the boxed update.
func foldAggArgs(grps []*aggGroup, aggs []AggSpec, argVecs []*Vector, sel []int) error {
	for a, spec := range aggs {
		v := argVecs[a]
		switch {
		case spec.Arg == nil: // COUNT(*)
			for _, g := range grps {
				g.states[a].count++
			}
		case v.Kind == expr.KindFloat && isNumericAgg(spec.Kind):
			for pos, i := range sel {
				if v.Null == nil || !v.Null[i] {
					grps[pos].states[a].addFloat(spec.Kind, v.F[i])
				}
			}
		case v.Kind == expr.KindInt && isNumericAgg(spec.Kind):
			for pos, i := range sel {
				if v.Null == nil || !v.Null[i] {
					grps[pos].states[a].addFloat(spec.Kind, float64(v.I[i]))
				}
			}
		default:
			for pos, i := range sel {
				if err := grps[pos].states[a].update(spec.Kind, v.Value(i)); err != nil {
					return fmt.Errorf("exec: aggregate: %w", err)
				}
			}
		}
	}
	return nil
}

// foldGlobal folds a batch's aggregate argument vectors into the one group
// of a global aggregate. COUNT(*) adds the row count; a null-free float or
// int SUM/AVG keeps its running sum in a local, adding in sel order as
// addFloat would, so the result is bit-identical; every other kind folds
// through addFloat or update on the one state.
func foldGlobal(states []aggState, aggs []AggSpec, argVecs []*Vector, sel []int) error {
	for a, spec := range aggs {
		st, v := &states[a], argVecs[a]
		switch {
		case spec.Arg == nil: // COUNT(*)
			st.count += int64(len(sel))
		case (spec.Kind == AggSum || spec.Kind == AggAvg) && v.Null == nil && v.Kind == expr.KindFloat:
			st.sum = sumSel(v.F, sel, st.sum)
			st.count += int64(len(sel))
		case (spec.Kind == AggSum || spec.Kind == AggAvg) && v.Null == nil && v.Kind == expr.KindInt:
			st.sum = sumSel(v.I, sel, st.sum)
			st.count += int64(len(sel))
		case v.Kind == expr.KindFloat && isNumericAgg(spec.Kind):
			for _, i := range sel {
				if v.Null == nil || !v.Null[i] {
					st.addFloat(spec.Kind, v.F[i])
				}
			}
		case v.Kind == expr.KindInt && isNumericAgg(spec.Kind):
			for _, i := range sel {
				if v.Null == nil || !v.Null[i] {
					st.addFloat(spec.Kind, float64(v.I[i]))
				}
			}
		default:
			for _, i := range sel {
				if err := st.update(spec.Kind, v.Value(i)); err != nil {
					return fmt.Errorf("exec: aggregate: %w", err)
				}
			}
		}
	}
	return nil
}

// sumSel adds xs[i] for i in sel to s, in sel order.
func sumSel[T int64 | float64](xs []T, sel []int, s float64) float64 {
	for _, i := range sel {
		s += float64(xs[i])
	}
	return s
}

// isNumericAgg reports whether the aggregate folds through addFloat (COUNT,
// SUM, AVG, VAR, STDDEV — MIN/MAX preserve the argument's kind and go
// through the boxed path).
func isNumericAgg(k AggKind) bool {
	switch k {
	case AggCount, AggSum, AggAvg, AggVar, AggStdDev:
		return true
	}
	return false
}

// emitGroupBatch materializes groups [lo, hi) as a columnar batch.
func emitGroupBatch(groups []*aggGroup, lo, hi, ngroup int, aggs []AggSpec) *Batch {
	n := hi - lo
	b := &Batch{N: n, Cols: make([]*Vector, ngroup+len(aggs))}
	vals := make([]expr.Value, n)
	for c := 0; c < ngroup; c++ {
		for i := 0; i < n; i++ {
			vals[i] = groups[lo+i].key[c]
		}
		b.Cols[c] = vectorFromValues(vals)
	}
	for a, spec := range aggs {
		for i := 0; i < n; i++ {
			vals[i] = groups[lo+i].states[a].final(spec.Kind)
		}
		b.Cols[ngroup+a] = vectorFromValues(vals)
	}
	return b
}
