package exec

import (
	"container/heap"
	"sort"

	"datalaws/internal/expr"
)

// VecSort is ORDER BY as a pipeline breaker: each worker keeps its morsels'
// rows — a bounded heap of the Limit best under a LIMIT — and one merge
// orders them. Ties break by input position (morsel, row), as the row
// Sort's stable sort over the in-order input does, so the rows a LIMIT keeps
// do not depend on the pool size. It emits one morsel of the first Keep
// columns; the rest are hidden order keys.
type VecSort struct {
	pipeSet
	Keys  []SortKey
	Limit int // rows to keep; -1 keeps every row
	Keep  int // leading columns emitted

	out []Row
	pos int
}

type sortRow struct {
	vals        Row
	morsel, row int64
}

func (a *sortRow) before(keys []SortKey, b *sortRow) bool {
	if c := cmpSortKeys(keys, a.vals, b.vals); c != 0 {
		return c < 0
	}
	return a.morsel < b.morsel || (a.morsel == b.morsel && a.row < b.row)
}

// sortStage returns the sort a lowered subtree ends in, if it is one.
func sortStage(pipes []workerPipe) *VecSort {
	om, _ := pipes[0].pipe.(*oneMorsel)
	if om == nil {
		return nil
	}
	s, _ := om.VectorOperator.(*VecSort)
	return s
}

// Columns implements VectorOperator.
func (s *VecSort) Columns() []string { return s.pipes[0].pipe.Columns()[:s.Keep] }

// Open implements VectorOperator: it runs the whole sort, so NextBatch only
// emits. A failed Open leaves no pipeline open.
func (s *VecSort) Open() error {
	s.out, s.pos = nil, 0
	return s.openRun(s.sort)
}

func (s *VecSort) sort() error {
	runs := make([]*sortRun, s.n)
	err := s.runPool(func(w int) partialErr {
		runs[w] = &sortRun{keys: s.Keys, limit: s.Limit, check: make(sortCheck, len(s.Keys))}
		return s.drain(s.pipes[w], runs[w].add)
	})
	if err != nil {
		return err
	}
	var rows []sortRow
	for _, r := range runs {
		runs[0].check.merge(r.check)
		rows = append(rows, r.rows...)
	}
	if err := runs[0].check.err(); err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].before(s.Keys, &rows[j]) })
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	s.out = make([]Row, len(rows))
	for i := range rows {
		s.out[i] = rows[i].vals
	}
	return nil
}

// NextBatch implements VectorOperator, emitting the sorted rows.
func (s *VecSort) NextBatch() (*Batch, error) {
	if s.pos >= len(s.out) {
		return nil, nil
	}
	lo := s.pos
	s.pos = min(lo+BatchSize, len(s.out))
	return batchFromRows(s.out[lo:s.pos], s.Keep), nil
}

// Close implements VectorOperator.
func (s *VecSort) Close() error {
	s.out = nil
	return s.pipeSet.close()
}

// sortRun is one worker's share of a sort: every row it saw or, under a
// limit, a max-heap of the limit best. Values live in one flat array, so a
// kept row allocates nothing of its own.
type sortRun struct {
	keys  []SortKey
	limit int
	check sortCheck
	flat  []expr.Value
	rows  []sortRow
}

// add folds one batch in. A worker claims morsels in increasing order, so a
// row that ties the heap's worst on every key comes after it and loses.
func (r *sortRun) add(b *Batch, sel []int, morsel, rowBase int64) error {
	for k, key := range r.keys {
		r.check.observeVec(k, b.Cols[key.Col], sel)
	}
	for j, i := range sel {
		pos := rowBase + int64(j)
		if r.limit < 0 || len(r.rows) < r.limit {
			r.rows = append(r.rows, sortRow{vals: r.row(b, i), morsel: morsel, row: pos})
			if len(r.rows) == r.limit {
				heap.Init(r)
			}
			continue
		}
		if r.limit == 0 || !r.beatsWorst(b, i) {
			continue
		}
		worst := &r.rows[0]
		for c, v := range b.Cols {
			worst.vals[c] = v.Value(i)
		}
		worst.morsel, worst.row = morsel, pos
		heap.Fix(r, 0)
	}
	return nil
}

// row copies batch row i into the flat store. Rows cut earlier keep the
// array they were cut from, which append never writes again.
func (r *sortRun) row(b *Batch, i int) Row {
	lo := len(r.flat)
	for _, v := range b.Cols {
		r.flat = append(r.flat, v.Value(i))
	}
	return r.flat[lo:len(r.flat):len(r.flat)]
}

func (r *sortRun) beatsWorst(b *Batch, i int) bool {
	worst := r.rows[0].vals
	for _, k := range r.keys {
		if c := cmpSortKey(k, b.Cols[k.Col].Value(i), worst[k.Col]); c != 0 {
			return c < 0
		}
	}
	return false
}

// The heap.Interface of a full run (only Init and Fix are used): the row
// that sorts last is at the root.
func (r *sortRun) Len() int           { return len(r.rows) }
func (r *sortRun) Less(i, j int) bool { return r.rows[j].before(r.keys, &r.rows[i]) }
func (r *sortRun) Swap(i, j int)      { r.rows[i], r.rows[j] = r.rows[j], r.rows[i] }
func (r *sortRun) Push(any)           {}
func (r *sortRun) Pop() any           { return nil }
