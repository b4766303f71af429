package exec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// VectorOperator is the batch analogue of Operator: a pull iterator over
// columnar batches. A returned batch (including its vectors) is only valid
// until the next NextBatch or Close call on the producing operator, and the
// consumer may set Sel on a batch it received.
type VectorOperator interface {
	Columns() []string
	Open() error
	// NextBatch returns the next batch, or nil at end of input.
	NextBatch() (*Batch, error)
	Close() error
}

// tableMorsels is the morsel set the workers of a table scan share: one
// chunk capture per surviving partition — a plain table is the one-partition
// case — each zone-map-pruned by the statement's WHERE, plus the claim
// cursor over the flattened survivor chunks. Morsel indexes are dense across
// partitions in range order, so VecGather reproduces partition-order output.
// Everything is captured together when worker 0 opens: concurrent appends
// neither tear the scan nor reach partitions it has not read yet, whatever
// the pool size.
type tableMorsels struct {
	parts []*table.Table
	where expr.Expr
	// alias is the qualifier where references the columns under (the parent
	// name for partition children).
	alias string
	cols  []string
	// need lists the positions in cols the plan reads (see reads.need); the
	// scan decodes only those, and leaves the other vectors of its batches
	// absent (nil).
	need []int
	from *PartitionScan // EXPLAIN provenance; nil for a plain table

	sets   []chunkSet
	units  []partChunk // flattened (partition, survivor-chunk) pairs
	cursor atomic.Int64
}

// partChunk addresses one surviving chunk of one surviving partition.
type partChunk struct {
	part int // index into parts / sets
	k    int // dense survivor position within that partition's chunkSet
}

func (s *tableMorsels) capture() error {
	s.sets = make([]chunkSet, len(s.parts))
	s.units = s.units[:0]
	for i, p := range s.parts {
		cs, err := captureChunks(p, s.where, s.alias)
		if err != nil {
			return err
		}
		s.sets[i] = cs
		for k := 0; k < cs.numChunks(); k++ {
			s.units = append(s.units, partChunk{part: i, k: k})
		}
	}
	s.cursor.Store(0)
	return nil
}

// vecColSrc is the capture-time snapshot of one storage column: typed slice
// headers plus the null bitmap, enough to emit batch windows without going
// back through the Column interface. A column the plan does not read has
// the zero vecColSrc.
type vecColSrc struct {
	kind  expr.Kind
	i64   []int64
	f64   []float64
	codes []uint32
	dict  []string
	bools *storage.Bitmap
	nulls *storage.Bitmap

	sorted bool // the chunk's ZoneMap.Sorted
}

// vecMorselScan is the vectorized table scan, one per worker: it claims
// chunk morsels from the shared cursor, decodes each through the shared
// cache on first NextBatch (NextMorsel cannot report errors), and emits
// batches whose int/float vectors are zero-copy views straight off the
// decoded storage columns — no per-row boxing, no table.Row
// materialization. Batch windows never span chunks.
type vecMorselScan struct {
	shared *tableMorsels
	lead   bool // worker 0: its Open captures the shared set
	Interruptible

	win    colWindow
	cur    int // claimed position in the unit list; -1 before any claim
	src    []vecColSrc
	n, pos int
	srcBuf []vecColSrc // backs src, reused across this worker's morsels
}

// tablePipes builds one scan pipeline per budgeted worker over shared.
func tablePipes(shared *tableMorsels, workers int) []workerPipe {
	srcs := make([]MorselSource, workers)
	for i := range srcs {
		srcs[i] = &vecMorselScan{shared: shared, lead: i == 0}
	}
	return pipesFromSources(srcs)
}

// Columns implements VectorOperator.
func (m *vecMorselScan) Columns() []string { return m.shared.cols }

// ExplainInfo implements Explainer; zone-map pruning is computed fresh at
// render time (see chunkExplain).
func (m *vecMorselScan) ExplainInfo() string {
	s := m.shared
	if s.from != nil {
		return "VecMorsel" + s.from.ExplainInfo() + s.colsExplain()
	}
	t := s.parts[0]
	return fmt.Sprintf("VecMorselScan %s (%d rows)%s%s", t.Name, t.NumRows(), chunkExplain(t, s.where, s.alias), s.colsExplain())
}

// colsExplain renders the columns a scan reads, " cols: a,v", when it reads
// fewer than all of them.
func (s *tableMorsels) colsExplain() string {
	if len(s.need) == len(s.cols) {
		return ""
	}
	if len(s.need) == 0 {
		return " cols: none"
	}
	names := make([]string, len(s.need))
	for j, i := range s.need {
		names[j] = s.cols[i][strings.LastIndexByte(s.cols[i], '.')+1:]
	}
	return " cols: " + strings.Join(names, ",")
}

// Open implements VectorOperator.
func (m *vecMorselScan) Open() error {
	if m.lead {
		if err := m.shared.capture(); err != nil {
			return err
		}
	}
	m.win.init(len(m.shared.cols), m.shared.need)
	m.cur, m.src, m.n, m.pos = -1, nil, 0, 0
	m.ResetInterrupt()
	return nil
}

// NextMorsel implements MorselSource: one morsel is one surviving chunk of
// one surviving partition.
func (m *vecMorselScan) NextMorsel() (int64, bool) {
	idx := m.shared.cursor.Add(1) - 1
	if idx >= m.NumMorsels() {
		return 0, false
	}
	m.cur = int(idx)
	m.src, m.n, m.pos = nil, 0, 0
	return idx, true
}

// NumMorsels implements MorselSource.
func (m *vecMorselScan) NumMorsels() int64 { return int64(len(m.shared.units)) }

// NextBatch implements VectorOperator, returning nil at the end of the
// current morsel.
func (m *vecMorselScan) NextBatch() (*Batch, error) {
	if err := m.CheckInterruptNow(); err != nil {
		return nil, err
	}
	if m.cur < 0 {
		return nil, nil
	}
	if m.src == nil {
		u := m.shared.units[m.cur]
		src, n, err := m.shared.sets[u.part].columns(u.k, m.shared.need, m.srcBuf)
		if err != nil {
			return nil, err
		}
		m.src, m.srcBuf, m.n, m.pos = src, src, n, 0
	}
	if m.pos >= m.n {
		return nil, nil
	}
	lo := m.pos
	hi := lo + BatchSize
	if hi > m.n {
		hi = m.n
	}
	m.pos = hi
	return m.win.window(m.src, lo, hi), nil
}

// Close implements VectorOperator. Worker 0 releases the captured views; the
// pool has stopped by the time pipelines are closed.
func (m *vecMorselScan) Close() error {
	m.src, m.srcBuf = nil, nil
	if m.lead {
		m.shared.sets = nil
	}
	return nil
}

// colWindow materializes [lo, hi) row windows of a column snapshot into a
// reusable batch. Int and float vectors are zero-copy views of the storage
// slices; strings, bools and null masks fill per-window scratch buffers.
// Each consumer owns its own colWindow, so parallel morsel workers never
// share output buffers.
type colWindow struct {
	batch    Batch
	nullBufs [][]bool
	strBufs  [][]string
	boolBufs [][]bool
}

// init sizes the window for nc columns of which need are read; the others
// stay absent (nil) in every window. Call it from Open.
func (w *colWindow) init(nc int, need []int) {
	w.batch.Cols = make([]*Vector, nc)
	for _, i := range need {
		w.batch.Cols[i] = &Vector{}
	}
	w.nullBufs = make([][]bool, nc)
	w.strBufs = make([][]string, nc)
	w.boolBufs = make([][]bool, nc)
}

// window fills the batch with rows [lo, hi) of the snapshot. The returned
// batch is valid until the next window call.
func (w *colWindow) window(src []vecColSrc, lo, hi int) *Batch {
	n := hi - lo
	b := &w.batch
	b.N = n
	b.Sel = nil
	for c := range src {
		sc := &src[c]
		v := b.Cols[c]
		if v == nil {
			continue
		}
		*v = Vector{Kind: sc.kind, Null: w.nullSlice(c, sc.nulls, lo, n)}
		switch sc.kind {
		case expr.KindInt:
			v.I = sc.i64[lo:hi]
			v.Stable, v.Sorted = true, sc.sorted
		case expr.KindFloat:
			v.F = sc.f64[lo:hi]
			v.Stable = true
		case expr.KindString:
			if cap(w.strBufs[c]) < n {
				w.strBufs[c] = make([]string, BatchSize)
			}
			buf := w.strBufs[c][:n]
			for i := 0; i < n; i++ {
				if v.Null == nil || !v.Null[i] {
					buf[i] = sc.dict[sc.codes[lo+i]]
				}
			}
			v.S = buf
		case expr.KindBool:
			if cap(w.boolBufs[c]) < n {
				w.boolBufs[c] = make([]bool, BatchSize)
			}
			buf := w.boolBufs[c][:n]
			for i := 0; i < n; i++ {
				buf[i] = sc.bools.Get(lo + i)
			}
			v.B = buf
		}
	}
	return b
}

// nullSlice materializes the [lo, lo+n) window of a null bitmap into a bool
// slice, returning nil for a column with no null bitmap (see someNulls).
func (w *colWindow) nullSlice(c int, bm *storage.Bitmap, lo, n int) []bool {
	if bm == nil {
		return nil
	}
	if cap(w.nullBufs[c]) < n {
		w.nullBufs[c] = make([]bool, BatchSize)
	}
	buf := w.nullBufs[c][:n]
	for i := 0; i < n; i++ {
		buf[i] = bm.Get(lo + i)
	}
	return buf
}

// VecValuesScan replays pre-materialized boxed rows in batches.
type VecValuesScan struct {
	Cols []string
	Rows []Row
	Interruptible
	pos int
}

// Columns implements VectorOperator.
func (s *VecValuesScan) Columns() []string { return s.Cols }

// Open implements VectorOperator.
func (s *VecValuesScan) Open() error { s.pos = 0; s.ResetInterrupt(); return nil }

// NextBatch implements VectorOperator.
func (s *VecValuesScan) NextBatch() (*Batch, error) {
	if err := s.CheckInterruptNow(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.Rows) {
		return nil, nil
	}
	lo := s.pos
	hi := lo + BatchSize
	if hi > len(s.Rows) {
		hi = len(s.Rows)
	}
	s.pos = hi
	return batchFromRows(s.Rows[lo:hi], len(s.Cols)), nil
}

// Close implements VectorOperator.
func (s *VecValuesScan) Close() error { return nil }

// batchFromRows transposes boxed rows into a columnar batch.
func batchFromRows(rows []Row, ncols int) *Batch {
	b := &Batch{N: len(rows), Cols: make([]*Vector, ncols)}
	vals := make([]expr.Value, len(rows))
	for c := 0; c < ncols; c++ {
		for i, r := range rows {
			vals[i] = r[c]
		}
		b.Cols[c] = vectorFromValues(vals)
	}
	return b
}

// VecFilter narrows the batch's selection vector through the predicate's
// selection tree (see selNode) — surviving rows are never copied.
type VecFilter struct {
	Child VectorOperator
	Pred  expr.Expr

	sel             selNode
	selBuf, nullBuf []int
	pending         pendingErr
}

// Columns implements VectorOperator.
func (f *VecFilter) Columns() []string { return f.Child.Columns() }

// Open implements VectorOperator. The first pipeline's filter holds the
// tree the planner compiled; the others compile theirs here.
func (f *VecFilter) Open() error {
	if f.sel == nil {
		s, err := whereSelection(f.Pred, f.Child.Columns())
		if err != nil {
			return err
		}
		f.sel = s
	}
	f.pending = pendingErr{}
	return f.Child.Open()
}

// whereSelection compiles a WHERE or HAVING predicate; a failure reads as
// the row Filter's.
func whereSelection(pred expr.Expr, cols []string) (selNode, error) {
	s, err := compileSelection(pred, cols)
	if err != nil {
		return nil, rowError(err, "exec: WHERE")
	}
	return s, nil
}

// NextBatch implements VectorOperator. On a batch the tree fails on, it
// keeps the rows before the first failing row and fails on the next call
// (see firstFailure).
func (f *VecFilter) NextBatch() (*Batch, error) {
	for f.pending.err == nil {
		b, err := f.Child.NextBatch()
		if err != nil || b == nil {
			return b, err
		}
		sel := b.selection()
		out, err := f.keep(b, sel)
		if err != nil {
			_, err = f.pending.failAt(err, b, f.Child.Columns(), sel, f.evalRow, func(rows []int) (err error) {
				out, err = f.keep(b, rows)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		if len(out) > 0 {
			b.Sel = out
			return b, nil
		}
	}
	return nil, f.pending.take()
}

// keep returns the rows of sel on which the predicate is TRUE.
func (f *VecFilter) keep(b *Batch, sel []int) ([]int, error) {
	t, n, err := f.sel.eval(b, sel, f.selBuf[:0], f.nullBuf[:0])
	if err != nil {
		return nil, fmt.Errorf("exec: WHERE: %w", err)
	}
	f.selBuf, f.nullBuf = t, n
	return t, nil
}

// evalRow evaluates the predicate on one row as the row reference's Filter
// does.
func (f *VecFilter) evalRow(env expr.Env) error {
	v, err := expr.Eval(f.Pred, env)
	if err == nil && !v.IsNull() {
		_, err = v.AsBool()
	}
	if err != nil {
		return fmt.Errorf("exec: WHERE: %w", err)
	}
	return nil
}

// firstFailure is the one error path of the pipeline's kernels. A kernel
// evaluates one operand over a whole batch at a time, so the row it fails
// on need not be the first row the row reference fails on. Given a batch
// on which a kernel failed, it evaluates the operator's expressions again a
// row at a time through expr.Eval (evalRow, in the reference's order), the
// rows in selection order, and returns the position in sel of the first
// row that fails, with that row's error. A filter or a projection passes
// on the rows before it and then fails, so a statement fails on the
// reference's row with the reference's text, and a LIMIT that stops before
// that row stops before the error too.
func firstFailure(b *Batch, cols []string, sel []int, evalRow func(expr.Env) error) (int, error) {
	env := &batchRow{cols: cols, b: b}
	for pos, i := range sel {
		env.i = i
		if err := evalRow(env); err != nil {
			return pos, err
		}
	}
	return len(sel), nil
}

// pendingErr is the error path's state in an operator that passes rows
// on, a filter or a projection: the error of the first failing row, which
// the operator returns on its next call, once the rows before it have gone
// on.
type pendingErr struct{ err error }

// failAt takes err, the error of a kernel over the rows sel of b. It finds
// the first failing row (firstFailure), keeps its error and evaluates the
// rows before it again through redo, returning them to pass on. When no
// row fails a row at a time, err itself is returned.
func (p *pendingErr) failAt(err error, b *Batch, cols []string, sel []int, evalRow func(expr.Env) error, redo func(rows []int) error) ([]int, error) {
	pos, rerr := firstFailure(b, cols, sel, evalRow)
	if rerr == nil {
		return nil, err
	}
	p.err = rerr
	if err := redo(sel[:pos]); err != nil {
		return nil, err
	}
	return sel[:pos], nil
}

// take returns the kept error and clears it.
func (p *pendingErr) take() error {
	err := p.err
	p.err = nil
	return err
}

// batchRow is row i of a batch as an expression environment.
type batchRow struct {
	cols []string
	b    *Batch
	i    int
}

// Lookup implements expr.Env.
func (r *batchRow) Lookup(name string) (expr.Value, bool) {
	c, err := ResolveColumn(r.cols, name)
	if err != nil {
		return expr.Value{}, false
	}
	return r.b.Cols[c].Value(r.i), true
}

// Close implements VectorOperator.
func (f *VecFilter) Close() error { return f.Child.Close() }

// VecProject computes one output vector per compiled expression kernel.
type VecProject struct {
	Child VectorOperator
	Exprs []expr.Expr
	Names []string

	kerns   []kernel
	out     Batch
	pending pendingErr
}

// Columns implements VectorOperator.
func (p *VecProject) Columns() []string { return p.Names }

// Open implements VectorOperator, compiling the kernels unless the
// planner did (the first pipeline's).
func (p *VecProject) Open() error {
	if len(p.Exprs) != len(p.Names) {
		return fmt.Errorf("exec: project has %d exprs, %d names", len(p.Exprs), len(p.Names))
	}
	if p.kerns == nil {
		kerns, err := projectKernels(p.Exprs, p.Child.Columns())
		if err != nil {
			return err
		}
		p.kerns = kerns
	}
	p.out.Cols = make([]*Vector, len(p.Exprs))
	p.pending = pendingErr{}
	return p.Child.Open()
}

// projectKernels compiles the projected expressions; a failure reads as
// the row Project's.
func projectKernels(exprs []expr.Expr, cols []string) ([]kernel, error) {
	kerns := make([]kernel, len(exprs))
	for i, e := range exprs {
		k, err := compileKernel(e, cols)
		if err != nil {
			return nil, rowError(err, fmt.Sprintf("exec: projecting %s", e))
		}
		kerns[i] = k
	}
	return kerns, nil
}

// NextBatch implements VectorOperator. On a batch a kernel fails on, it
// projects the rows before the first failing row and fails on the next
// call (see firstFailure).
func (p *VecProject) NextBatch() (*Batch, error) {
	if p.pending.err != nil {
		return nil, p.pending.take()
	}
	b, err := p.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.selection()
	p.out.N, p.out.Sel = b.N, b.Sel
	if err := p.project(b, sel); err != nil {
		rows, err := p.pending.failAt(err, b, p.Child.Columns(), sel, p.evalRow, func(rows []int) error {
			return p.project(b, rows)
		})
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, p.pending.take()
		}
		p.out.Sel = rows
	}
	return &p.out, nil
}

// evalRow evaluates the projection on one row as the row reference's
// Project does.
func (p *VecProject) evalRow(env expr.Env) error {
	for _, e := range p.Exprs {
		if _, err := expr.Eval(e, env); err != nil {
			return fmt.Errorf("exec: projecting %s: %w", e, err)
		}
	}
	return nil
}

// project evaluates every kernel on the rows of sel.
func (p *VecProject) project(b *Batch, sel []int) error {
	for i, k := range p.kerns {
		v, err := k.eval(b, sel)
		if err != nil {
			return fmt.Errorf("exec: projecting %s: %w", p.Exprs[i], err)
		}
		p.out.Cols[i] = v
	}
	return nil
}

// Close implements VectorOperator.
func (p *VecProject) Close() error { return p.Child.Close() }

// VecConcat emits the batches of its children in order; children must have
// identical column lists (the vectorized counterpart of Concat, used by
// hybrid partial-coverage plans).
type VecConcat struct {
	Children []VectorOperator
	idx      int
}

// Columns implements VectorOperator.
func (c *VecConcat) Columns() []string {
	if len(c.Children) == 0 {
		return nil
	}
	return c.Children[0].Columns()
}

// Open implements VectorOperator.
func (c *VecConcat) Open() error {
	if len(c.Children) == 0 {
		return fmt.Errorf("exec: empty concat")
	}
	want := c.Children[0].Columns()
	for _, ch := range c.Children[1:] {
		got := ch.Columns()
		if len(got) != len(want) {
			return fmt.Errorf("exec: concat children have %d vs %d columns", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("exec: concat column %d mismatch: %q vs %q", i, got[i], want[i])
			}
		}
	}
	c.idx = 0
	return c.Children[0].Open()
}

// NextBatch implements VectorOperator. Like every operator it keeps
// returning nil after the last child is exhausted: the claim loop calls
// NextBatch again after a nil.
func (c *VecConcat) NextBatch() (*Batch, error) {
	for c.idx < len(c.Children) {
		b, err := c.Children[c.idx].NextBatch()
		if err != nil || b != nil {
			return b, err
		}
		if err := c.Children[c.idx].Close(); err != nil {
			return nil, err
		}
		c.idx++
		if c.idx < len(c.Children) {
			if err := c.Children[c.idx].Open(); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// Close implements VectorOperator.
func (c *VecConcat) Close() error {
	if c.idx < len(c.Children) {
		return c.Children[c.idx].Close()
	}
	return nil
}

// rowAdapter adapts a VectorOperator to the row Operator interface: it is
// the cursor every lowered plan is read through, a row at a time. Next
// fills one row buffer the adapter owns, so a row is valid until the next
// call to Next; a caller that keeps rows copies them (see RowSlab).
type rowAdapter struct {
	V VectorOperator

	b   *Batch
	sel []int
	pos int
	row Row
}

// Columns implements Operator.
func (a *rowAdapter) Columns() []string { return a.V.Columns() }

// Open implements Operator.
func (a *rowAdapter) Open() error {
	a.b = nil
	a.pos = 0
	return a.V.Open()
}

// Next implements Operator.
func (a *rowAdapter) Next() (Row, error) {
	for a.b == nil || a.pos >= len(a.sel) {
		b, err := a.V.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			a.b = nil
			return nil, nil
		}
		a.b = b
		a.sel = b.selection()
		a.pos = 0
	}
	i := a.sel[a.pos]
	a.pos++
	if a.row == nil { // every batch of an operator has its column count
		a.row = make(Row, len(a.b.Cols))
	}
	for c, v := range a.b.Cols {
		a.row[c] = v.Value(i)
	}
	return a.row, nil
}

// Close implements Operator.
func (a *rowAdapter) Close() error { return a.V.Close() }
