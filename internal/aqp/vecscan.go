package aqp

import (
	"fmt"
	"sync/atomic"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
)

// SplitMorsels implements exec.MorselSplitter: the plan lowering runs the
// ModelScan as batch scans that evaluate the captured model's formula over
// whole input-grid slices in one compiled kernel pass — the paper's zero-IO
// scan at vectorized speed. The scans claim contiguous ranges of the
// parameter table (group keys) from a shared cursor. Statistical-law
// extraction is independent per group, so workers regenerate disjoint grid
// slices with no coordination beyond the claim; morsel indexes follow group
// order, so the exec gather emits the same rows in the same order at any
// pool size. There is never more than one scan per group, so a scan
// restricted to a single group (the planner's point pushdown) or an
// ungrouped model is one scan with one morsel. It fails when the model's
// formula has no vector kernel.
func (s *ModelScan) SplitMorsels(workers int) ([]exec.MorselSource, error) {
	workers = max(1, min(workers, len(s.orderKeys())))
	shared := &modelMorsels{scan: s, workers: workers}
	out := make([]exec.MorselSource, workers)
	for i := range out {
		v, err := newVecModelScan(shared, i == 0)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// modelMorsels is the morsel set the workers of a model scan share: the
// group-key order, the per-morsel range size, and the claim cursor.
// Ranges are sized for a few morsels per worker so dynamic claiming
// rebalances groups whose grids reject different legal fractions.
type modelMorsels struct {
	scan    *ModelScan
	workers int

	keys   []int64
	chunk  int
	total  int64
	cursor atomic.Int64
}

// capture runs when worker 0 opens, before any sibling claims.
func (m *modelMorsels) capture() {
	m.keys = m.scan.orderKeys()
	m.chunk = max(1, (len(m.keys)+m.workers*4-1)/(m.workers*4))
	m.total = int64((len(m.keys) + m.chunk - 1) / m.chunk)
	m.cursor.Store(0)
}

// vecModelScan regenerates tuples from a captured model in columnar batches,
// one scan per worker. It enumerates the (group, input-combination)
// odometer over each claimed group range, filling input and parameter
// vectors for up to BatchSize legal rows, and evaluates the model once per
// batch through an expr.VecKernel, so batches freely span group
// boundaries within a morsel (fitted parameters ride along as per-row
// vectors). All mutable state — kernels, buffers, cursor, interrupt counter
// — is private to the scan, so siblings run in parallel.
type vecModelScan struct {
	s      *ModelScan
	shared *modelMorsels
	lead   bool // worker 0: its Open captures the shared set
	kern   expr.VecKernel
	exec.Interruptible

	keys     []int64 // claimed group-key range
	groupIdx int
	comboIdx []int
	done     bool

	args     []expr.VecArg // np parameter vectors followed by ni input vectors
	paramBuf [][]float64
	inputBuf [][]float64
	keyBuf   []int64
	grpBuf   []*modelstore.GroupParams // per-row group, for error bounds
	yhat     []float64
	lo, hi   []float64
	inputs   []float64 // one-row scratch for legality checks and error bounds
	batch    exec.Batch
}

func newVecModelScan(shared *modelMorsels, lead bool) (*vecModelScan, error) {
	s := shared.scan
	kern, err := s.Model.Model.Kernel(s.Model.Model.RHS)
	if err != nil {
		return nil, fmt.Errorf("aqp: vectorizing model %s: %w", s.Model.Spec.Name, err)
	}
	return &vecModelScan{s: s, shared: shared, lead: lead, kern: kern}, nil
}

// Columns implements exec.VectorOperator.
func (v *vecModelScan) Columns() []string { return v.s.Columns() }

// Open implements exec.VectorOperator: it allocates the scan's private
// buffers; NextMorsel positions the group cursor.
func (v *vecModelScan) Open() error {
	if v.lead {
		v.shared.capture()
	}
	s := v.s
	if s.Level == 0 {
		s.Level = 0.95
	}
	model := s.Model.Model
	np, ni := len(model.Params), len(model.Inputs)
	v.comboIdx = make([]int, len(s.Domains))
	v.args = make([]expr.VecArg, np+ni)
	// Batches never exceed the (possibly pushdown-restricted) grid, so a
	// point lookup allocates one-row buffers, not BatchSize ones.
	bcap := GridSize(s.Domains) * len(s.orderKeys())
	if bcap <= 0 || bcap > exec.BatchSize {
		bcap = exec.BatchSize
	}
	v.paramBuf = make([][]float64, np)
	for j := range v.paramBuf {
		v.paramBuf[j] = make([]float64, bcap)
	}
	v.inputBuf = make([][]float64, ni)
	for j := range v.inputBuf {
		v.inputBuf[j] = make([]float64, bcap)
	}
	v.keyBuf = make([]int64, bcap)
	v.grpBuf = make([]*modelstore.GroupParams, bcap)
	v.yhat = make([]float64, bcap)
	if s.WithError {
		v.lo = make([]float64, bcap)
		v.hi = make([]float64, bcap)
	}
	v.inputs = make([]float64, ni)
	v.setKeys(nil)
	v.ResetInterrupt()
	return nil
}

// NextMorsel implements exec.MorselSource, claiming the next group range.
func (v *vecModelScan) NextMorsel() (int64, bool) {
	m := v.shared
	idx := m.cursor.Add(1) - 1
	if idx >= m.total {
		return 0, false
	}
	lo := int(idx) * m.chunk
	v.setKeys(m.keys[lo:min(lo+m.chunk, len(m.keys))])
	return idx, true
}

// NumMorsels implements exec.MorselSource.
func (v *vecModelScan) NumMorsels() int64 { return v.shared.total }

// setKeys points the scan at a group-key range and rewinds the odometer.
func (v *vecModelScan) setKeys(keys []int64) {
	v.keys = keys
	v.groupIdx = 0
	for i := range v.comboIdx {
		v.comboIdx[i] = 0
	}
	v.done = len(keys) == 0
	if !v.done {
		v.skipBadGroups()
	}
}

func (v *vecModelScan) skipBadGroups() {
	s := v.s
	for v.groupIdx < len(v.keys) {
		key := v.keys[v.groupIdx]
		if g, ok := s.Model.Groups[key]; ok && g.OK() {
			return
		}
		v.groupIdx++
	}
	v.done = true
}

// advance moves the (group, combo) cursor one step in odometer order.
func (v *vecModelScan) advance() {
	s := v.s
	for i := len(v.comboIdx) - 1; i >= 0; i-- {
		v.comboIdx[i]++
		if v.comboIdx[i] < len(s.Domains[i].Vals) {
			return
		}
		v.comboIdx[i] = 0
	}
	v.groupIdx++
	v.skipBadGroups()
}

// NextBatch implements exec.VectorOperator.
func (v *vecModelScan) NextBatch() (*exec.Batch, error) {
	s := v.s
	model := s.Model.Model
	np := len(model.Params)
	n := 0
	for n < len(v.keyBuf) && !v.done && v.groupIdx < len(v.keys) {
		if err := v.CheckInterrupt(); err != nil {
			return nil, err
		}
		key := v.keys[v.groupIdx]
		g := s.Model.Groups[key]
		for i := range v.inputs {
			v.inputs[i] = s.Domains[i].Vals[v.comboIdx[i]]
		}
		v.advance()
		if s.Legal != nil && !s.Legal.Contains(key, v.inputs) {
			continue
		}
		v.keyBuf[n] = key
		v.grpBuf[n] = g
		for j := 0; j < np; j++ {
			v.paramBuf[j][n] = g.Params[j]
		}
		for j, x := range v.inputs {
			v.inputBuf[j][n] = x
		}
		n++
	}
	if n == 0 {
		return nil, nil
	}
	for j := 0; j < np; j++ {
		v.args[j] = expr.VecArg{Vec: v.paramBuf[j]}
	}
	for j := range v.inputBuf {
		v.args[np+j] = expr.VecArg{Vec: v.inputBuf[j]}
	}
	v.kern(n, v.args, v.yhat)

	cols := make([]*exec.Vector, 0, len(v.Columns()))
	if s.Model.Grouped() {
		cols = append(cols, &exec.Vector{Kind: expr.KindInt, I: v.keyBuf[:n]})
	}
	for j := range v.inputBuf {
		cols = append(cols, &exec.Vector{Kind: expr.KindFloat, F: v.inputBuf[j][:n]})
	}
	cols = append(cols, &exec.Vector{Kind: expr.KindFloat, F: v.yhat[:n]})
	if s.WithError {
		// One evaluator per batch: taking one per row would serialize the
		// scan's workers on the model's free list.
		ev := model.Evaluator()
		for i := 0; i < n; i++ {
			for j := range v.inputBuf {
				v.inputs[j] = v.inputBuf[j][i]
			}
			g := v.grpBuf[i]
			v.lo[i], v.hi[i] = ev.Interval(&g.Estimate, v.inputs, v.yhat[i], s.Level, s.SEInflation)
		}
		ev.Release()
		cols = append(cols,
			&exec.Vector{Kind: expr.KindFloat, F: v.lo[:n]},
			&exec.Vector{Kind: expr.KindFloat, F: v.hi[:n]})
	}
	v.batch = exec.Batch{N: n, Cols: cols}
	return &v.batch, nil
}

// Close implements exec.VectorOperator.
func (v *vecModelScan) Close() error { return nil }

// ExplainInfo renders the scan as the ModelScan it runs.
func (v *vecModelScan) ExplainInfo() string { return "Vec" + v.s.ExplainInfo() }
