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
			v.Stable = true
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
// slice, returning nil when the whole column is null-free.
func (w *colWindow) nullSlice(c int, bm *storage.Bitmap, lo, n int) []bool {
	if bm == nil || !bm.Any() {
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

// VecFilter applies a compiled predicate kernel and narrows the batch's
// selection vector — surviving rows are never copied.
type VecFilter struct {
	Child VectorOperator
	Pred  expr.Expr

	kern   kernelFn
	selBuf []int
}

// Columns implements VectorOperator.
func (f *VecFilter) Columns() []string { return f.Child.Columns() }

// Open implements VectorOperator.
func (f *VecFilter) Open() error {
	k, err := whereKernel(f.Pred, f.Child.Columns())
	if err != nil {
		return err
	}
	f.kern = k
	return f.Child.Open()
}

// whereKernel compiles a WHERE or HAVING predicate; a failure reads as the
// row Filter's.
func whereKernel(pred expr.Expr, cols []string) (kernelFn, error) {
	k, err := compileKernel(pred, cols)
	if err != nil {
		return nil, rowError(err, "exec: WHERE")
	}
	return k, nil
}

// NextBatch implements VectorOperator.
func (f *VecFilter) NextBatch() (*Batch, error) {
	for {
		b, err := f.Child.NextBatch()
		if err != nil || b == nil {
			return b, err
		}
		sel := b.selection()
		v, err := f.kern(b, sel)
		if err != nil {
			return nil, fmt.Errorf("exec: WHERE: %w", err)
		}
		out := f.selBuf[:0]
		for _, i := range sel {
			t, isN, err := truth(v, i)
			if err != nil {
				return nil, fmt.Errorf("exec: WHERE: %w", err)
			}
			if !isN && t {
				out = append(out, i)
			}
		}
		f.selBuf = out
		if len(out) == 0 {
			continue
		}
		b.Sel = out
		return b, nil
	}
}

// Close implements VectorOperator.
func (f *VecFilter) Close() error { return f.Child.Close() }

// VecProject computes one output vector per compiled expression kernel.
type VecProject struct {
	Child VectorOperator
	Exprs []expr.Expr
	Names []string

	kerns []kernelFn
	out   Batch
}

// Columns implements VectorOperator.
func (p *VecProject) Columns() []string { return p.Names }

// Open implements VectorOperator.
func (p *VecProject) Open() error {
	if len(p.Exprs) != len(p.Names) {
		return fmt.Errorf("exec: project has %d exprs, %d names", len(p.Exprs), len(p.Names))
	}
	cols := p.Child.Columns()
	p.kerns = make([]kernelFn, len(p.Exprs))
	for i, e := range p.Exprs {
		k, err := projectKernel(e, cols)
		if err != nil {
			return err
		}
		p.kerns[i] = k
	}
	p.out.Cols = make([]*Vector, len(p.Exprs))
	return p.Child.Open()
}

// projectKernel compiles one projected expression; a failure reads as the
// row Project's.
func projectKernel(e expr.Expr, cols []string) (kernelFn, error) {
	k, err := compileKernel(e, cols)
	if err != nil {
		return nil, rowError(err, fmt.Sprintf("exec: projecting %s", e))
	}
	return k, nil
}

// NextBatch implements VectorOperator.
func (p *VecProject) NextBatch() (*Batch, error) {
	b, err := p.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.selection()
	for i, k := range p.kerns {
		v, err := k(b, sel)
		if err != nil {
			return nil, fmt.Errorf("exec: projecting %s: %w", p.Exprs[i], err)
		}
		p.out.Cols[i] = v
	}
	p.out.N = b.N
	p.out.Sel = b.Sel
	return &p.out, nil
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
// the cursor every lowered plan is read through, a row at a time.
type rowAdapter struct {
	V VectorOperator

	b   *Batch
	sel []int
	pos int
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
	row := make(Row, len(a.b.Cols))
	for c, v := range a.b.Cols {
		row[c] = v.Value(i)
	}
	return row, nil
}

// Close implements Operator.
func (a *rowAdapter) Close() error { return a.V.Close() }
