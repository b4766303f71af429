package exec

import (
	"fmt"
	"math/bits"
	"sort"

	"datalaws/internal/expr"
)

// VecHashAggregate is the vectorized hash aggregate. Group keys and aggregate
// arguments are evaluated once per batch through compiled kernels (no
// per-row expression trees, no per-identifier map lookups). Each batch maps
// its rows to dense group ids, then folds one aggregate at a time into that
// aggregate's state column indexed by id: typed count and sum columns for
// COUNT/SUM/AVG, aggState columns under the row reference's rules for the
// rest. It runs in two phases: every worker of the pool folds its morsels
// into a private partial-aggregate table (no locks on the data path) and
// publishes its columns into its groups' states, then a single merge
// recombines the partial states — COUNT/SUM/AVG additively, MIN/MAX by
// comparison, VAR/STDDEV through the Welford combination — preserving SQL
// NULL semantics (aggregates skip NULLs; empty inputs yield NULL, except
// COUNT). Groups are emitted in the order an in-order scan first sees them,
// tracked as the minimum (morsel, row-within-morsel) position across
// workers, so output order does not depend on the pool size. Worker 0 is
// the caller itself, so a pool of one starts no goroutine and has nothing
// to recombine. Output columns are "$grp0…" followed by "$agg0…", like
// HashAggregate.
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
		perr := h.drain(h.pipes[w], pa.fold)
		pa.publish()
		return perr
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
// Its states are filled from the partial table's state columns once the
// worker has folded its last morsel (partialAgg.publish).
type partialGroup struct {
	aggGroup
	keyStr      string
	morsel, row int64
}

// partialAgg is one worker's aggregation state: compiled kernels plus the
// group table it folds morsels into. A group is known by its dense id, its
// index in order; each aggregate keeps its state for every group in one
// column indexed by that id.
type partialAgg struct {
	aggs       []AggSpec
	groupKerns []kernelFn
	argKerns   []kernelFn
	index      map[string]int32
	order      []*partialGroup
	cols       []aggColumn
	keyVecs    []*Vector
	argVecs    []*Vector
	ids        []int32 // the group id of each row of the batch being folded
	kb         []byte
	ints       intGroups
}

func newPartialAgg(groupExprs []expr.Expr, aggs []AggSpec, cols []string) (*partialAgg, error) {
	pa := &partialAgg{
		aggs:       aggs,
		groupKerns: make([]kernelFn, len(groupExprs)),
		argKerns:   make([]kernelFn, len(aggs)),
		index:      map[string]int32{},
		cols:       make([]aggColumn, len(aggs)),
		keyVecs:    make([]*Vector, len(groupExprs)),
		argVecs:    make([]*Vector, len(aggs)),
	}
	if len(groupExprs) > 0 {
		pa.ids = make([]int32, 0, BatchSize)
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
// selected row in the input order. It maps the rows to their groups' ids
// first, then folds one aggregate at a time into its state column.
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
	ids := pa.groupIDs(sel, morsel, rowBase)
	for a, spec := range pa.aggs {
		if err := pa.cols[a].fold(spec, pa.argVecs[a], ids, sel); err != nil {
			return fmt.Errorf("exec: aggregate: %w", err)
		}
	}
	return nil
}

// groupIDs maps row sel[pos] to its group's id, ids[pos], creating the
// groups it has not seen. A global aggregate has one group, id 0, and
// returns nil ids.
func (pa *partialAgg) groupIDs(sel []int, morsel, rowBase int64) []int32 {
	if len(pa.groupKerns) == 0 {
		if len(pa.order) == 0 {
			pa.newGroup(&partialGroup{morsel: morsel, row: rowBase})
		}
		return nil
	}
	var ints *Vector
	if len(pa.keyVecs) == 1 && pa.keyVecs[0].Kind == expr.KindInt {
		ints = pa.keyVecs[0]
	}
	ids := pa.ids[:0]
	if ints != nil && ints.Null == nil {
		// A null-free integer key, the common case, has a loop of its own
		// that tests no NULL mask.
		for pos, i := range sel {
			id, ok := pa.ints.find(ints.I[i])
			if !ok {
				id = pa.group(i, morsel, rowBase+int64(pos))
				pa.ints.insert(ints.I[i], id)
			}
			ids = append(ids, id)
		}
		pa.ids = ids
		return ids
	}
	for pos, i := range sel {
		indexed := ints != nil && !ints.Null[i]
		id, ok := int32(0), false
		if indexed {
			id, ok = pa.ints.find(ints.I[i])
		}
		if !ok {
			id = pa.group(i, morsel, rowBase+int64(pos))
			if indexed {
				pa.ints.insert(ints.I[i], id)
			}
		}
		ids = append(ids, id)
	}
	pa.ids = ids
	return ids
}

// intGroups caches the group ids of a single integer key column by value,
// ahead of the rendered-key index: open addressing over one slice of
// key/id slots, a power-of-two size, linear probing and a multiplicative
// hash.
type intGroups struct {
	slots []intSlot
	shift uint // 64 − log2(len(slots))
	n     int
}

// intSlot holds a key and its group's id+1; an id of 0 marks an empty slot.
type intSlot struct {
	key int64
	id  int32
}

func (t *intGroups) slot(k int64) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the group id of key k, if it has one.
func (t *intGroups) find(k int64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for s := t.slot(k); ; s = (s + 1) & mask {
		sl := &t.slots[s]
		if sl.key == k && sl.id != 0 {
			return sl.id - 1, true
		}
		if sl.id == 0 {
			return 0, false
		}
	}
}

// insert adds key k, which is absent, growing the table to keep it at
// most half full.
func (t *intGroups) insert(k int64, id int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	s := t.slot(k)
	for t.slots[s].id != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = intSlot{key: k, id: id + 1}
	t.n++
}

func (t *intGroups) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 64
	}
	t.slots, t.n = make([]intSlot, size), 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		if sl.id != 0 {
			t.insert(sl.key, sl.id-1)
		}
	}
}

// group finds or creates the group of row i by its rendered key, the
// group's identity across key kinds and workers, and returns its id.
func (pa *partialAgg) group(i int, morsel, row int64) int32 {
	kb := pa.kb[:0]
	for _, kv := range pa.keyVecs {
		kb = appendGroupKey(kb, kv.Value(i))
	}
	pa.kb = kb
	if id, ok := pa.index[string(kb)]; ok {
		return id
	}
	key := make([]expr.Value, len(pa.keyVecs))
	for j, kv := range pa.keyVecs {
		key[j] = kv.Value(i)
	}
	grp := &partialGroup{keyStr: string(kb), morsel: morsel, row: row}
	grp.key = key
	id := pa.newGroup(grp)
	pa.index[grp.keyStr] = id
	return id
}

// newGroup appends grp to the table, with an empty state in every
// aggregate's column, and returns its id.
func (pa *partialAgg) newGroup(grp *partialGroup) int32 {
	pa.order = append(pa.order, grp)
	for a := range pa.cols {
		pa.cols[a].grow(pa.aggs[a].Kind)
	}
	return int32(len(pa.order) - 1)
}

// publish copies the state columns into the groups' states, which share
// one backing array; merge and emission read them there.
func (pa *partialAgg) publish() {
	n := len(pa.aggs)
	states := make([]aggState, len(pa.order)*n)
	for g, grp := range pa.order {
		grp.states = states[g*n : (g+1)*n : (g+1)*n]
		for a := range pa.cols {
			grp.states[a] = pa.cols[a].state(g)
		}
	}
}

// aggColumn is one aggregate's state for every group of a partial table,
// indexed by group id. COUNT, SUM and AVG keep typed count and sum
// columns, which are all their final values and merges read; VAR, STDDEV,
// MIN and MAX keep whole states.
type aggColumn struct {
	count  []int64
	sum    []float64
	states []aggState
}

// countSum reports whether an aggregate keeps count and sum columns.
func countSum(k AggKind) bool { return k == AggCount || k == AggSum || k == AggAvg }

// grow adds an empty state for a new group.
func (c *aggColumn) grow(kind AggKind) {
	if countSum(kind) {
		c.count, c.sum = append(c.count, 0), append(c.sum, 0)
		return
	}
	c.states = append(c.states, aggState{})
}

// state returns group g's state.
func (c *aggColumn) state(g int) aggState {
	if c.states != nil {
		return c.states[g]
	}
	return aggState{count: c.count[g], sum: c.sum[g]}
}

// groupOf is the id of row sel[pos]: ids[pos], or 0 for a global
// aggregate's nil ids.
func groupOf(ids []int32, pos int) int32 {
	if ids == nil {
		return 0
	}
	return ids[pos]
}

// fold folds a batch's argument vector v into the states of the rows'
// groups, ids[pos] for row sel[pos], as update would. Each group adds its
// values in sel order, so a sum is bit-identical to update's. Float and
// int arguments of COUNT, SUM, AVG, VAR and STDDEV are read typed; every
// other argument is boxed.
func (c *aggColumn) fold(spec AggSpec, v *Vector, ids []int32, sel []int) error {
	switch {
	case spec.Arg == nil: // COUNT(*)
		if ids == nil {
			c.count[0] += int64(len(sel))
			return nil
		}
		for _, g := range ids {
			c.count[g]++
		}
	case countSum(spec.Kind) && v.Kind == expr.KindFloat:
		foldCountSum(c.count, c.sum, ids, v.F, v.Null, sel)
	case countSum(spec.Kind) && v.Kind == expr.KindInt:
		foldCountSum(c.count, c.sum, ids, v.I, v.Null, sel)
	case countSum(spec.Kind):
		for pos, i := range sel {
			x := v.Value(i)
			if x.IsNull() {
				continue
			}
			g := groupOf(ids, pos)
			if spec.Kind != AggCount {
				f, err := x.AsFloat()
				if err != nil {
					return err
				}
				c.sum[g] += f
			}
			c.count[g]++
		}
	case v.Kind == expr.KindFloat && isNumericAgg(spec.Kind):
		for pos, i := range sel {
			if v.Null == nil || !v.Null[i] {
				c.states[groupOf(ids, pos)].addFloat(spec.Kind, v.F[i])
			}
		}
	case v.Kind == expr.KindInt && isNumericAgg(spec.Kind):
		for pos, i := range sel {
			if v.Null == nil || !v.Null[i] {
				c.states[groupOf(ids, pos)].addFloat(spec.Kind, float64(v.I[i]))
			}
		}
	default:
		for pos, i := range sel {
			if err := c.states[groupOf(ids, pos)].update(spec.Kind, v.Value(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldCountSum counts the non-NULL xs[i] of sel into their groups and adds
// them to the groups' sums. With nil ids every row is group 0's, and a
// null-free batch keeps its running sum in a local.
func foldCountSum[T int64 | float64](count []int64, sum []float64, ids []int32, xs []T, nulls []bool, sel []int) {
	switch {
	case ids == nil && nulls == nil:
		sum[0] = sumSel(xs, sel, sum[0])
		count[0] += int64(len(sel))
	case nulls == nil:
		for pos, i := range sel {
			g := ids[pos]
			count[g]++
			sum[g] += float64(xs[i])
		}
	default:
		for pos, i := range sel {
			if !nulls[i] {
				g := groupOf(ids, pos)
				count[g]++
				sum[g] += float64(xs[i])
			}
		}
	}
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
