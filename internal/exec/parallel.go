// Morsel-driven execution: the one vectorized pipeline.
//
// Every vectorized plan runs the same way, with a worker count. A pipeline —
// a source under filters, projections and join probes — reads its input as
// morsels claimed from a shared atomic cursor, the scheduling unit of
// [Leis et al., SIGMOD 2014]. For table scans a morsel is exactly one
// storage chunk, so "claim a morsel" and "decode a chunk" coincide and
// zone-map-pruned chunks never enter the morsel space at all; a partitioned
// table's surviving partitions form one dense morsel space in range order.
// Sources that cannot split (VALUES, a concat, a breaker's output) are one
// morsel. Every worker owns a private copy of the whole pipeline (its own
// compiled kernels, batch buffers and interrupt state) over a shared
// immutable snapshot of the input, so no synchronization happens on the
// data path; workers coordinate only when claiming the next morsel.
//
// The plan is built with one pipeline per budgeted worker (Lower). The
// pool is sized when the plan opens: min(budget, surviving morsels). With
// one pipeline in the pool — a budget of 1, a one-morsel source, or pruning
// that left at most one morsel — the caller runs the claim loop itself: no
// goroutine, no channel, and scan batches pass through as zero-copy windows
// of the snapshot. "Serial" execution is that case, not a second
// implementation.
//
// A join probes on every pipeline of its left input, over a build table the
// first worker drains from the right input (VecHashJoin). Three operators
// recombine worker output:
//
//   - VecGather re-emits produced batches in morsel order — the scan's own
//     order — whatever the pool size.
//   - VecHashAggregate folds a partial aggregate per worker and merges the
//     partial states once at the end (COUNT/SUM/AVG additively, MIN/MAX by
//     comparison, VAR/STDDEV through the Welford combination), emitting
//     groups in first-seen order.
//   - VecSort keeps each worker's rows (a bounded heap under a LIMIT) and
//     merges them once, ties in input order.
//
// Because the merge reassociates floating-point addition, SUM/AVG/VAR
// results can differ between pool sizes in the last few ulps; everything
// else — row sets, row order, NULL (3VL) semantics, error messages — is
// identical, and is checked against the row reference in this package's
// tests, which drains the same logical plan a row at a time.
package exec

import (
	"math"
	"sync"
	"sync/atomic"

	"datalaws/internal/expr"
)

// MorselSource is one worker's view of a pipeline's input: a VectorOperator
// that cooperates with sibling sources on a shared morsel queue. NextBatch
// returns nil at the end of the current morsel (and again on every later
// call until the next claim); NextMorsel claims the next unprocessed one.
// Morsel indexes are dense (0..NumMorsels-1) and ordered like the input,
// which is what lets VecGather reconstruct deterministic output order.
//
// Siblings are opened first to last and only as many as the pool needs:
// opening the first captures the shared input for this execution, so every
// worker reads one snapshot and a re-executed plan sees fresh data.
type MorselSource interface {
	VectorOperator
	// NextMorsel claims the next morsel, reporting its dense index; ok is
	// false when the input is exhausted.
	NextMorsel() (idx int64, ok bool)
	// NumMorsels reports the total morsel count of the captured input
	// (valid once the first sibling is open).
	NumMorsels() int64
}

// MorselSplitter is the one hook through which a plan node defined outside
// this package (the aqp model scan) enters the vectorized pipeline: it
// returns between one and workers cooperating sources over one shared
// morsel set, ordered as MorselSource requires, or the error that keeps the
// plan from running.
type MorselSplitter interface {
	SplitMorsels(workers int) ([]MorselSource, error)
}

// oneMorsel presents an operator that cannot split — VALUES, a concat, an
// aggregate's output — as a source whose whole output is morsel 0, so it
// runs under the same claim loop as a scan.
type oneMorsel struct {
	VectorOperator
	claimed bool
}

// Open implements VectorOperator.
func (o *oneMorsel) Open() error {
	o.claimed = false
	return o.VectorOperator.Open()
}

// NextMorsel implements MorselSource.
func (o *oneMorsel) NextMorsel() (int64, bool) {
	if o.claimed {
		return 0, false
	}
	o.claimed = true
	return 0, true
}

// NumMorsels implements MorselSource.
func (o *oneMorsel) NumMorsels() int64 { return 1 }

// workerPipe is one worker's private pipeline: the full vectorized operator
// stack plus the morsel-claiming source at its bottom.
type workerPipe struct {
	pipe VectorOperator
	src  MorselSource
}

func pipesFromSources(srcs []MorselSource) []workerPipe {
	pipes := make([]workerPipe, len(srcs))
	for i, s := range srcs {
		pipes[i] = workerPipe{pipe: s, src: s}
	}
	return pipes
}

// onePipe wraps an unsplittable operator as a single one-morsel pipeline.
func onePipe(v VectorOperator) []workerPipe {
	return pipesFromSources([]MorselSource{&oneMorsel{VectorOperator: v}})
}

// pipeSet is the state VecGather and the pipeline breakers share: the
// pipelines built for the worker budget, how many of them this execution
// opened, and the statement context the claim loops watch.
type pipeSet struct {
	pipes []workerPipe
	n     int // pool size: pipelines opened by the current execution
	Interruptible

	failed atomic.Bool // a breaker's worker failed; siblings stop claiming
}

// Workers reports the worker budget the plan was built for; used by EXPLAIN.
func (p *pipeSet) Workers() int { return len(p.pipes) }

// open opens the first pipeline, which captures the shared morsel set, and
// then as many more as there are morsels for: a worker beyond the morsel
// count would compile kernels and allocate buffers only to claim nothing.
func (p *pipeSet) open() error {
	p.n = 0
	for i := range p.pipes {
		if i > 0 && int64(i) >= p.pipes[0].src.NumMorsels() {
			break
		}
		if err := p.pipes[i].pipe.Open(); err != nil {
			p.close()
			return err
		}
		p.n++
	}
	return nil
}

// close closes the pipelines open() opened; safe to repeat.
func (p *pipeSet) close() error {
	var err error
	for i := 0; i < p.n; i++ {
		if cerr := p.pipes[i].pipe.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	p.n = 0
	return err
}

// openRun opens the pool and runs a pipeline breaker's whole computation;
// a failure leaves no pipeline open.
func (p *pipeSet) openRun(run func() error) error {
	if err := p.open(); err != nil {
		return err
	}
	err := run()
	if err != nil {
		p.close()
	}
	return err
}

// partialErr is a worker failure pinned to its input position, so a breaker
// can report the error an in-order scan would have hit first.
type partialErr struct {
	err         error
	morsel, row int64
}

func (e *partialErr) before(o *partialErr) bool {
	return e.morsel < o.morsel || e.morsel == o.morsel && e.row < o.row
}

// runPool runs a breaker's work over the open pool — worker 0 in the
// caller, the rest one goroutine each — and reports the failure an
// in-order scan would have hit first.
func (p *pipeSet) runPool(work func(w int) partialErr) error {
	p.failed.Store(false)
	fails := make([]partialErr, p.n)
	run := func(w int) {
		if fails[w] = work(w); fails[w].err != nil {
			p.failed.Store(true)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < p.n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	fail := partialErr{morsel: math.MaxInt64}
	for _, e := range fails {
		if e.err != nil && e.before(&fail) {
			fail = e
		}
	}
	return fail.err
}

// drain is a breaker worker's claim loop: it folds every batch of every
// morsel it claims, with the morsel and the batch's first row within it.
func (p *pipeSet) drain(wp workerPipe, fold func(b *Batch, sel []int, morsel, row int64) error) partialErr {
	for {
		// A failed sibling fails the whole Open: stop claiming. A canceled
		// statement fails it too, before the next morsel's pipeline runs.
		if p.failed.Load() {
			return partialErr{}
		}
		if err := p.CheckInterruptNow(); err != nil {
			return partialErr{err: err}
		}
		idx, ok := wp.src.NextMorsel()
		if !ok {
			return partialErr{}
		}
		var rows int64
		for {
			b, err := wp.pipe.NextBatch()
			if err != nil {
				return partialErr{err: err, morsel: idx, row: rows}
			}
			if b == nil {
				break
			}
			sel := b.selection()
			if err := fold(b, sel, idx, rows); err != nil {
				return partialErr{err: err, morsel: idx, row: rows}
			}
			rows += int64(len(sel))
		}
	}
}

// morselItem is one morsel's worth of worker output: the compacted batches
// it produced and the error that stopped it, if any.
type morselItem struct {
	idx     int64
	batches []*Batch
	err     error
}

// morselLead bounds how many claimed-but-unemitted morsels the pool may
// hold per worker. Without it, one slow morsel would let the siblings race
// through the whole input and buffer the entire compacted result in the
// reorder map; with it, gather memory is O(morselLead × workers × morsel).
const morselLead = 4

// VecGather is the pipeline's exchange operator: it runs the worker
// pipelines over the shared morsel set and emits their batches in morsel
// order — the scan's own order — so the result does not depend on the pool
// size. Errors surface at the position an in-order scan reports them.
//
// With a pool of one the caller runs the claim loop itself and batches pass
// through uncopied. Otherwise one goroutine per pipeline collects each
// morsel's output, and out-of-order morsels wait in a reorder buffer until
// their turn; closing the gather (early termination, LIMIT) stops the pool
// without draining the input.
//
// A LIMIT with no sort beneath it caps the gather: it emits the first limit
// rows in morsel order and then reports the end of input.
type VecGather struct {
	pipeSet
	limit int // rows to emit; -1 emits every row
	left  int // rows the cap still admits in this execution; -1 without a cap

	claimed bool // pool of one: a morsel is claimed and not yet drained

	ch      chan morselItem
	done    chan struct{}
	credits chan struct{}
	wg      sync.WaitGroup

	buf     map[int64]morselItem
	nextIdx int64
	total   int64
	cur     []*Batch
	curPos  int
	curErr  error
}

// newVecGather wraps per-worker pipelines in a gather.
func newVecGather(pipes []workerPipe) *VecGather {
	return &VecGather{pipeSet: pipeSet{pipes: pipes}, limit: -1}
}

// Columns implements VectorOperator.
func (g *VecGather) Columns() []string { return g.pipes[0].pipe.Columns() }

// Open implements VectorOperator: it opens the pool's pipelines and, when
// there is more than one, starts a goroutine for each.
func (g *VecGather) Open() error {
	if err := g.pipeSet.open(); err != nil {
		return err
	}
	g.claimed, g.left = false, g.limit
	if g.n == 1 {
		return nil
	}
	g.total = g.pipes[0].src.NumMorsels()
	g.nextIdx = 0
	g.buf = make(map[int64]morselItem)
	g.cur, g.curPos, g.curErr = nil, 0, nil
	g.ch = make(chan morselItem, g.n)
	g.done = make(chan struct{})
	g.credits = make(chan struct{}, morselLead*g.n)
	for i := 0; i < cap(g.credits); i++ {
		g.credits <- struct{}{}
	}
	for _, p := range g.pipes[:g.n] {
		g.wg.Add(1)
		go g.worker(p)
	}
	return nil
}

// worker claims morsels and runs its pipeline over each, compacting the
// surviving rows into fresh batches (worker buffers are reused per call, so
// output must not alias them).
func (g *VecGather) worker(p workerPipe) {
	defer g.wg.Done()
	for {
		// One credit per claimed-but-unemitted morsel: the consumer hands
		// credits back as it emits, so the pool cannot run unboundedly
		// ahead of a slow in-order morsel.
		select {
		case <-g.credits:
		case <-g.done:
			return
		}
		// A canceled statement stops the worker at its next claim, before
		// it pays for another morsel's pipeline; the consumer watches the
		// same context, so exiting without an item cannot strand it.
		if g.CheckInterruptNow() != nil {
			return
		}
		idx, ok := p.src.NextMorsel()
		if !ok {
			return
		}
		var out []*Batch
		var werr error
		for {
			b, err := p.pipe.NextBatch()
			if err != nil {
				werr = err
				break
			}
			if b == nil {
				break
			}
			out = append(out, cloneBatchCompact(b))
		}
		select {
		case g.ch <- morselItem{idx: idx, batches: out, err: werr}:
		case <-g.done:
			return
		}
		if werr != nil {
			return
		}
	}
}

// NextBatch implements VectorOperator, emitting batches in morsel order up
// to the cap.
func (g *VecGather) NextBatch() (*Batch, error) {
	if g.left == 0 {
		return nil, nil
	}
	b, err := g.next()
	if err != nil || b == nil || g.left < 0 {
		return b, err
	}
	if sel := b.selection(); len(sel) > g.left {
		b.Sel = sel[:g.left]
	}
	g.left -= len(b.selection())
	return b, nil
}

func (g *VecGather) next() (*Batch, error) {
	if g.n == 1 {
		return g.nextInline()
	}
	for {
		if g.curPos < len(g.cur) {
			b := g.cur[g.curPos]
			g.curPos++
			return b, nil
		}
		if g.curErr != nil {
			return nil, g.curErr
		}
		if g.nextIdx >= g.total {
			return nil, nil
		}
		// A canceled statement stops at the next morsel boundary, like the
		// inline loop, not after the reorder buffer has drained.
		if err := g.CheckInterruptNow(); err != nil {
			return nil, err
		}
		if item, ok := g.buf[g.nextIdx]; ok {
			delete(g.buf, g.nextIdx)
			g.nextIdx++
			g.cur, g.curPos, g.curErr = item.batches, 0, item.err
			// Return the morsel's credit; non-blocking because a worker
			// that claimed and found the input exhausted keeps its credit.
			select {
			case g.credits <- struct{}{}:
			default:
			}
			continue
		}
		var ctxDone <-chan struct{}
		if ctx := g.Context(); ctx != nil {
			ctxDone = ctx.Done()
		}
		select {
		case item := <-g.ch:
			g.buf[item.idx] = item
		case <-ctxDone:
			return nil, g.Context().Err()
		}
	}
}

// nextInline is NextBatch for a pool of one: the caller claims morsels in
// order and hands the pipeline's batches straight through, valid until the
// next call like any operator's.
func (g *VecGather) nextInline() (*Batch, error) {
	p := g.pipes[0]
	for {
		if !g.claimed {
			if err := g.CheckInterruptNow(); err != nil {
				return nil, err
			}
			if _, ok := p.src.NextMorsel(); !ok {
				return nil, nil
			}
			g.claimed = true
		}
		b, err := p.pipe.NextBatch()
		if err != nil || b != nil {
			return b, err
		}
		g.claimed = false
	}
}

// Close implements VectorOperator: it stops the pool, if one is running
// (workers between sends exit at their next claim or send), and closes the
// pipelines. Safe to repeat and after a failed Open.
func (g *VecGather) Close() error {
	if g.done != nil {
		close(g.done)
		g.wg.Wait()
		g.done = nil
	}
	g.buf, g.cur = nil, nil
	return g.pipeSet.close()
}

// cloneBatchCompact copies a batch's selected rows into a fresh dense batch
// that does not alias the producing worker's reusable buffers, so the
// gather can hand it downstream while the worker moves on. Unfiltered
// Stable vectors (int/float scan windows over the immutable snapshot) are
// aliased instead of copied — only their scratch null masks are cloned.
func cloneBatchCompact(b *Batch) *Batch {
	sel := b.selection()
	n := len(sel)
	identity := b.Sel == nil
	out := &Batch{N: n, Cols: make([]*Vector, len(b.Cols))}
	for c, v := range b.Cols {
		out.Cols[c] = compactVector(v, sel, n, identity)
	}
	return out
}

func compactVector(v *Vector, sel []int, n int, identity bool) *Vector {
	out := &Vector{Kind: v.Kind}
	if identity && v.Stable {
		switch v.Kind {
		case expr.KindInt:
			out.I, out.Stable = v.I, true
		case expr.KindFloat:
			out.F, out.Stable = v.F, true
		}
		if out.Stable {
			if v.Null != nil {
				out.Null = append([]bool(nil), v.Null[:n]...)
			}
			return out
		}
	}
	switch v.Kind {
	case expr.KindInt:
		out.I = make([]int64, n)
		for j, i := range sel {
			out.I[j] = v.I[i]
		}
	case expr.KindFloat:
		out.F = make([]float64, n)
		for j, i := range sel {
			out.F[j] = v.F[i]
		}
	case expr.KindString:
		out.S = make([]string, n)
		for j, i := range sel {
			out.S[j] = v.S[i]
		}
	case expr.KindBool:
		out.B = make([]bool, n)
		for j, i := range sel {
			out.B[j] = v.B[i]
		}
	case anyKind:
		out.Any = make([]expr.Value, n)
		for j, i := range sel {
			out.Any[j] = v.Any[i]
		}
	default: // all-NULL vector: the mask carries the length
		out.Null = make([]bool, n)
		for j := range out.Null {
			out.Null[j] = true
		}
		return out
	}
	if v.Null != nil {
		nulls := make([]bool, n)
		any := false
		for j, i := range sel {
			if v.Null[i] {
				nulls[j] = true
				any = true
			}
		}
		if any {
			out.Null = nulls
		}
	}
	return out
}
