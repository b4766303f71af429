package exec

import (
	"fmt"
	"math/bits"
	"sort"

	"datalaws/internal/expr"
)

// VecHashAggregate is the vectorized hash aggregate. Group keys and aggregate
// arguments are evaluated once per batch through compiled kernels (no
// per-row expression trees, no per-identifier map lookups); a batch on
// which one fails takes the one error path (firstFailure). Each batch maps
// its rows to dense group ids, counting each group's rows once, then folds
// one aggregate at a time into that aggregate's state columns
// indexed by id (aggColumn). It runs in two phases: every worker of the
// pool folds its morsels into a private partial-aggregate table (no locks
// on the data path) and publishes its columns into its groups' states,
// then a single merge recombines the partial states — COUNT/SUM/AVG
// additively, MIN/MAX by comparison, VAR/STDDEV through the Welford
// combination — preserving SQL NULL semantics (aggregates skip NULLs;
// empty inputs yield NULL, except COUNT). Groups are emitted in the order
// an in-order scan first sees them, tracked as the minimum (morsel,
// row-within-morsel) position across workers, so output order does not
// depend on the pool size. Worker 0 is the caller itself, so a pool of one
// starts no goroutine and has nothing to recombine. Output columns are
// "$grp0…" followed by "$agg0…", like HashAggregate.
type VecHashAggregate struct {
	pipeSet
	GroupExprs []expr.Expr
	Aggs       []AggSpec

	first  aggKernels // the first worker's, compiled by the planner
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
		k := h.first
		if w > 0 {
			var err error
			if k, err = compileAgg(h.GroupExprs, h.Aggs, h.pipes[w].pipe.Columns()); err != nil {
				return partialErr{err: err}
			}
		}
		pa := newPartialAgg(h.GroupExprs, h.Aggs, h.pipes[w].pipe.Columns(), k)
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
	aggKernels
	groupExprs []expr.Expr
	aggs       []AggSpec
	inCols     []string
	index      map[string]int32
	order      []*partialGroup
	rows       []int64 // rows folded into each group, by id
	cols       []aggColumn
	keyVecs    []*Vector
	argVecs    []*Vector
	ids        []int32 // the group id of each row of the batch being folded
	kb         []byte
	ints       intGroups
}

func newPartialAgg(groupExprs []expr.Expr, aggs []AggSpec, cols []string, k aggKernels) *partialAgg {
	pa := &partialAgg{
		aggKernels: k,
		groupExprs: groupExprs,
		aggs:       aggs,
		inCols:     cols,
		index:      map[string]int32{},
		cols:       make([]aggColumn, len(aggs)),
		keyVecs:    make([]*Vector, len(groupExprs)),
		argVecs:    make([]*Vector, len(aggs)),
	}
	if len(groupExprs) > 0 {
		pa.ids = make([]int32, 0, BatchSize)
	}
	for a, spec := range aggs {
		pa.cols[a].kind = spec.Kind
	}
	return pa
}

// aggKernels are an aggregate's group-key and argument kernels (COUNT(*)
// has none).
type aggKernels struct {
	groupKerns, argKerns []kernel
}

// compileAgg compiles an aggregate's kernels; a failure reads as the row
// HashAggregate's.
func compileAgg(groupExprs []expr.Expr, aggs []AggSpec, cols []string) (aggKernels, error) {
	k := aggKernels{groupKerns: make([]kernel, len(groupExprs)), argKerns: make([]kernel, len(aggs))}
	for i, g := range groupExprs {
		gk, err := compileKernel(g, cols)
		if err != nil {
			return k, rowError(err, "exec: GROUP BY")
		}
		k.groupKerns[i] = gk
	}
	for i, spec := range aggs {
		if spec.Arg == nil {
			continue
		}
		ak, err := compileKernel(spec.Arg, cols)
		if err != nil {
			return k, rowError(err, "exec: aggregate arg")
		}
		k.argKerns[i] = ak
	}
	return k, nil
}

// fold accumulates one batch. morsel and rowBase locate the batch's first
// selected row in the input order. It maps the rows to their groups' ids
// first, then folds one aggregate at a time into its state column. A batch
// on which a kernel or a fold fails takes the error path (firstFailure):
// group keys, then each aggregate's argument, a row at a time.
func (pa *partialAgg) fold(b *Batch, sel []int, morsel, rowBase int64) error {
	err := pa.foldBatch(b, sel, morsel, rowBase)
	if err == nil {
		return nil
	}
	if _, rerr := firstFailure(b, pa.inCols, sel, pa.evalRow); rerr != nil {
		return rerr
	}
	return err
}

// evalRow evaluates the group keys and aggregate arguments on one row as
// the row reference's HashAggregate does. A fold fails on a value alone
// (a SUM of a string that is no number) where a fresh state's does.
func (pa *partialAgg) evalRow(env expr.Env) error {
	for _, g := range pa.groupExprs {
		if _, err := expr.Eval(g, env); err != nil {
			return fmt.Errorf("exec: GROUP BY: %w", err)
		}
	}
	for _, spec := range pa.aggs {
		if spec.Arg == nil {
			continue
		}
		v, err := expr.Eval(spec.Arg, env)
		if err != nil {
			return fmt.Errorf("exec: aggregate arg: %w", err)
		}
		var st aggState
		if err := st.update(spec.Kind, v); err != nil {
			return fmt.Errorf("exec: aggregate: %w", err)
		}
	}
	return nil
}

func (pa *partialAgg) foldBatch(b *Batch, sel []int, morsel, rowBase int64) error {
	for i, k := range pa.groupKerns {
		v, err := k.eval(b, sel)
		if err != nil {
			return fmt.Errorf("exec: GROUP BY: %w", err)
		}
		pa.keyVecs[i] = v
	}
	for i, k := range pa.argKerns {
		if k == nil {
			continue
		}
		v, err := k.eval(b, sel)
		if err != nil {
			return fmt.Errorf("exec: aggregate arg: %w", err)
		}
		pa.argVecs[i] = v
	}
	ids := pa.groupIDs(sel, morsel, rowBase)
	for a := range pa.aggs {
		if err := pa.cols[a].fold(pa.argVecs[a], ids, sel); err != nil {
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
		pa.rows[0] += int64(len(sel))
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
			pa.rows[id]++
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
		pa.rows[id]++
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
	pa.rows = append(pa.rows, 0)
	for a := range pa.cols {
		pa.cols[a].grow()
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
			grp.states[a] = pa.cols[a].state(g, pa.rows[g])
		}
	}
}

// aggColumn is one aggregate's state for every group of a partial table,
// indexed by group id, in state columns that one fold fills for every
// aggregate. The partial table counts each group's rows once (rows);
// COUNT, SUM and AVG count only the rows whose argument is NULL (none for
// COUNT(*)), so a batch whose argument has no NULL mask costs them no
// count at all. SUM and AVG keep a sum, VAR and STDDEV a Welford count,
// mean and m2, and MIN and MAX the extreme value with its kind. The row
// reference folds the same values through aggState.update, in the same
// order within a group, so a pool of one gives its answers bit for bit.
type aggColumn struct {
	kind     AggKind
	nulls    []int64
	sum      []float64
	n        []int64
	mean, m2 []float64
	ext      []expr.Value
}

// grow adds an empty state for a new group.
func (c *aggColumn) grow() {
	switch c.kind {
	case AggMin, AggMax:
		c.ext = append(c.ext, expr.Value{})
	case AggVar, AggStdDev:
		c.n, c.mean, c.m2 = append(c.n, 0), append(c.mean, 0), append(c.m2, 0)
	default:
		c.nulls, c.sum = append(c.nulls, 0), append(c.sum, 0)
	}
}

// state returns group g's state; rows is the group's row count.
func (c *aggColumn) state(g int, rows int64) aggState {
	switch c.kind {
	case AggMin, AggMax:
		return aggState{ext: c.ext[g]}
	case AggVar, AggStdDev:
		return aggState{count: c.n[g], mean: c.mean[g], m2: c.m2[g]}
	}
	return aggState{count: rows - c.nulls[g], sum: c.sum[g]}
}

// groupOf is the id of row sel[pos]: ids[pos], or 0 for a global
// aggregate's nil ids.
func groupOf(ids []int32, pos int) int32 {
	if ids == nil {
		return 0
	}
	return ids[pos]
}

// fold folds a batch's argument vector v (nil for COUNT(*)) into the
// states of the rows' groups, ids[pos] for row sel[pos]. Each group folds
// its values in sel order. INT and DOUBLE arguments of COUNT, SUM, AVG,
// VAR and STDDEV are read typed; MIN, MAX and any other argument are boxed.
func (c *aggColumn) fold(v *Vector, ids []int32, sel []int) error {
	switch {
	case v == nil:
		return nil
	case c.kind == AggMin || c.kind == AggMax:
		return c.foldExt(v, ids, sel)
	case c.nulls != nil && (v.Null != nil || v.Kind == expr.KindNull || v.Kind == anyKind):
		for pos, i := range sel {
			if v.IsNull(i) {
				c.nulls[groupOf(ids, pos)]++
			}
		}
	}
	switch {
	case c.kind == AggCount:
	case v.Kind == expr.KindFloat:
		foldNums(c, v.F, v.Null, ids, sel)
	case v.Kind == expr.KindInt:
		foldNums(c, v.I, v.Null, ids, sel)
	default:
		for pos, i := range sel {
			if v.IsNull(i) {
				continue
			}
			f, err := v.Value(i).AsFloat()
			if err != nil {
				return err
			}
			c.addFloat(groupOf(ids, pos), f)
		}
	}
	return nil
}

// foldNums folds the non-NULL xs[i] of sel into the SUM/AVG sums or the
// VAR/STDDEV Welford states. A null-free global SUM keeps its running sum
// in a local.
func foldNums[T int64 | float64](c *aggColumn, xs []T, nulls []bool, ids []int32, sel []int) {
	sum := c.sum
	switch {
	case c.kind == AggVar || c.kind == AggStdDev:
		for pos, i := range sel {
			if nulls == nil || !nulls[i] {
				c.addFloat(groupOf(ids, pos), float64(xs[i]))
			}
		}
	case ids == nil && nulls == nil:
		s := sum[0]
		for _, i := range sel {
			s += float64(xs[i])
		}
		sum[0] = s
	case nulls == nil:
		for pos, i := range sel {
			sum[ids[pos]] += float64(xs[i])
		}
	default:
		for pos, i := range sel {
			if !nulls[i] {
				sum[groupOf(ids, pos)] += float64(xs[i])
			}
		}
	}
}

// addFloat adds f to group g's SUM or AVG sum, or its VAR or STDDEV
// Welford state.
func (c *aggColumn) addFloat(g int32, f float64) {
	if c.kind != AggVar && c.kind != AggStdDev {
		c.sum[g] += f
		return
	}
	c.n[g]++
	d := f - c.mean[g]
	c.mean[g] += d / float64(c.n[g])
	c.m2[g] += d * (f - c.mean[g])
}

// foldExt folds the non-NULL rows of v into the groups' MIN or MAX
// through foldExt, the row reference's rule.
func (c *aggColumn) foldExt(v *Vector, ids []int32, sel []int) error {
	dir := extDir(c.kind)
	for pos, i := range sel {
		if v.IsNull(i) {
			continue
		}
		if err := foldExt(&c.ext[groupOf(ids, pos)], v.Value(i), dir); err != nil {
			return err
		}
	}
	return nil
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
