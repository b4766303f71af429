package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// largeDiffFixture is diffFixture scaled to span many morsels: the same
// schemas and value distributions (NULLs in every nullable position, the
// 'NULL' literal-string pitfall, negative and zero values), generated
// deterministically so serial and parallel runs see identical data.
func largeDiffFixture(t *testing.T, rows int) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog()
	ts, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "grp", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "y", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "label", Type: storage.TypeString},
		table.ColumnDef{Name: "flag", Type: storage.TypeBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Create("t", ts)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"a", "b", "c", "NULL", "d"}
	null := expr.Null()
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	batch := make([][]expr.Value, 0, 1024)
	for i := 0; i < rows; i++ {
		r := next()
		row := []expr.Value{
			expr.Int(int64(i + 1)),
			expr.Int(int64(r % 7)),
			expr.Float(float64(int64(r%2001)-1000) / 8),
			expr.Float(float64(int64(next()%4001) - 2000)),
			expr.Str(labels[next()%uint64(len(labels))]),
			expr.Bool(next()%2 == 0),
		}
		// Sprinkle NULLs over every nullable column on co-prime strides so
		// all 3VL combinations occur.
		if i%5 == 3 {
			row[2] = null
		}
		if i%7 == 2 {
			row[3] = null
		}
		if i%11 == 6 {
			row[1] = null
		}
		if i%13 == 4 {
			row[4] = null
		}
		if i%17 == 9 {
			row[5] = null
		}
		batch = append(batch, row)
		if len(batch) == cap(batch) {
			if _, err := tb.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := tb.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := table.NewSchema(
		table.ColumnDef{Name: "grp", Type: storage.TypeInt64},
		table.ColumnDef{Name: "name", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Create("g", ss)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"zero", "one", "two", "three", "four", "five", "six"} {
		if err := s.AppendRow([]expr.Value{expr.Int(int64(i)), expr.Str(name)}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// withSmallMorsels shrinks the morsel size so small fixtures span many
// morsels, restoring it when the test ends.
func withSmallMorsels(t *testing.T, rows int) {
	t.Helper()
	old := table.DefaultChunkRows
	table.DefaultChunkRows = rows
	t.Cleanup(func() { table.DefaultChunkRows = old })
}

// closeValue compares kind-exactly, with a relative tolerance for floats:
// the partial-aggregate merge reassociates floating-point addition, so
// SUM/AVG/VAR/STDDEV may differ from serial execution in the last few ulps.
func closeValue(a, b expr.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == expr.KindFloat {
		if a.String() == b.String() {
			return true // covers NaN, ±Inf, -0 exactly
		}
		scale := math.Max(math.Abs(a.F), math.Abs(b.F))
		return math.Abs(a.F-b.F) <= 1e-9*scale
	}
	return a.String() == b.String()
}

func buildParallel(t *testing.T, cat *table.Catalog, q string, workers int) (Operator, error) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return BuildSelect(cat, st.(*sql.SelectStmt), nil, workers)
}

// compareRuns checks two drained results row by row IN ORDER: the gather
// re-emits morsels in serial scan order and the parallel aggregate merges
// groups in serial first-seen order, so even queries without ORDER BY must
// match serial row order.
func compareRuns(t *testing.T, q, label string, want, got []Row, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q [%s]: serial err = %v, parallel err = %v", q, label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%q [%s]: error mismatch: serial %q vs parallel %q", q, label, wantErr, gotErr)
		}
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%q [%s]: serial %d rows vs parallel %d rows", q, label, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%q [%s] row %d: width %d vs %d", q, label, i, len(want[i]), len(got[i]))
		}
		for c := range want[i] {
			if !closeValue(want[i][c], got[i][c]) {
				t.Fatalf("%q [%s] row %d col %d: serial %v (%s) vs parallel %v (%s)",
					q, label, i, c, want[i][c], want[i][c].K, got[i][c], got[i][c].K)
			}
		}
	}
}

// TestDifferentialParallelVsSerial runs the entire differential corpus at
// 1, 2, 4 and GOMAXPROCS workers — one implementation at four pool sizes —
// against the independent row engine, over both the small edge-case fixture
// and a large many-morsel fixture.
func TestDifferentialParallelVsSerial(t *testing.T) {
	withSmallMorsels(t, 256)
	levels := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	fixtures := []struct {
		name string
		cat  *table.Catalog
	}{
		{"small", diffFixture(t)},
		{"large", largeDiffFixture(t, 4000)},
	}
	for _, fx := range fixtures {
		for _, q := range differentialQueries {
			rowOp, err := rowPlan(t, fx.cat, q)
			if err != nil {
				t.Fatalf("plan (row) %q: %v", q, err)
			}
			want, wantErr := Drain(rowOp)
			for _, p := range levels {
				parOp, err := buildParallel(t, fx.cat, q, p)
				if err != nil {
					t.Fatalf("plan (parallel %d) %q: %v", p, q, err)
				}
				got, gotErr := Drain(parOp)
				compareRuns(t, q, fmt.Sprintf("%s p=%d", fx.name, p), want, got, wantErr, gotErr)
			}
		}
	}
}

// TestDifferentialParallelErrors checks that runtime errors surface with the
// row engine's messages at every pool size: the gather reports the first
// erroring morsel in scan order, and the aggregate the in-order-first worker
// failure.
func TestDifferentialParallelErrors(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 3000)
	for _, q := range []string{
		"SELECT 1 / 0 FROM t",
		"SELECT id FROM t WHERE 1 % 0 = 1",
		"SELECT id + label FROM t WHERE label = 'a'",
		"SELECT id FROM t WHERE label AND flag",
		"SELECT sum(label) FROM t GROUP BY grp",
		// Pruning leaves one chunk (the tail), so these fail in the inline loop.
		"SELECT 1 / (id - 2995) FROM t WHERE id >= 2990",
		"SELECT sum(1 / (id - 2995)) FROM t WHERE id >= 2990",
	} {
		rowOp, err := rowPlan(t, cat, q)
		if err != nil {
			t.Fatalf("plan (row) %q: %v", q, err)
		}
		_, rowErr := Drain(rowOp)
		if rowErr == nil {
			t.Fatalf("%q: want a serial error", q)
		}
		for _, p := range []int{1, 2, 4} {
			parOp, err := buildParallel(t, cat, q, p)
			if err != nil {
				t.Fatalf("plan (parallel %d) %q: %v", p, q, err)
			}
			_, parErr := Drain(parOp)
			if parErr == nil {
				t.Fatalf("%q p=%d: want an error, got none", q, p)
			}
			if rowErr.Error() != parErr.Error() {
				t.Fatalf("%q p=%d: error mismatch:\n  serial:   %v\n  parallel: %v", q, p, rowErr, parErr)
			}
		}
	}
}

// TestParallelOrderByDeterministic pins deterministic output for ORDER BY
// (+ LIMIT) under parallel execution: the ordered gather preserves serial
// scan order, so stable sort ties and LIMIT cutoffs cannot flap between
// runs or parallelism levels.
func TestParallelOrderByDeterministic(t *testing.T) {
	withSmallMorsels(t, 256)
	cat := largeDiffFixture(t, 3000)
	queries := []string{
		// x carries NULLs and duplicates, so the sort has genuine ties.
		"SELECT id, x AS ex FROM t ORDER BY ex DESC LIMIT 25",
		"SELECT id FROM t WHERE flag ORDER BY label LIMIT 40",
		"SELECT grp, count(*) FROM t GROUP BY grp ORDER BY grp",
	}
	for _, q := range queries {
		var baseline []Row
		for run := 0; run < 3; run++ {
			for _, p := range []int{2, 4} {
				op, err := buildParallel(t, cat, q, p)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := Drain(op)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				if baseline == nil {
					baseline = rows
					continue
				}
				compareRuns(t, q, fmt.Sprintf("run=%d p=%d", run, p), baseline, rows, nil, nil)
			}
		}
	}
}

// TestDifferentialParallelSortErrors pins the ORDER BY error rule: a key
// column holding strings and non-strings fails, naming the first such key,
// in the row reference and at every pool size — here the classes sit in different
// morsels, so at two workers and more no worker sees both; a column of mixed
// INT and DOUBLE sorts.
func TestDifferentialParallelSortErrors(t *testing.T) {
	for _, c := range []struct {
		keys []SortKey
		in   []expr.Value
		want string
	}{
		{[]SortKey{{Col: 1}}, []expr.Value{expr.Null(), expr.Int(3), expr.Str("b"), expr.Str("a"), expr.Int(1)}, "exec: ORDER BY key 1 holds both strings and non-strings"},
		{[]SortKey{{Col: 2}, {Col: 1, Desc: true}}, []expr.Value{expr.Str("a"), expr.Null(), expr.Float(2.5)}, "exec: ORDER BY key 2 holds both strings and non-strings"},
		{[]SortKey{{Col: 1}}, []expr.Value{expr.Float(2.5), expr.Null(), expr.Int(2), expr.Float(math.NaN()), expr.Int(2)}, ""},
	} {
		vals := &morselValues{ValuesScan: ValuesScan{Cols: []string{"id", "k", "g"}}, per: 2}
		for i, k := range c.in {
			vals.Rows = append(vals.Rows, Row{expr.Int(int64(i)), k, expr.Int(int64(i % 2))})
		}
		want, wantErr := Drain(rowReference(&Sort{Child: &vals.ValuesScan, Keys: c.keys}))
		if (wantErr == nil) != (c.want == "") || wantErr != nil && wantErr.Error() != c.want {
			t.Fatalf("%v: row sort err = %v, want %q", c.in, wantErr, c.want)
		}
		for _, p := range []int{1, 2, 4} {
			op, err := Lower(&Sort{Child: vals, Keys: c.keys}, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Drain(op)
			compareRuns(t, fmt.Sprint(c.in), fmt.Sprintf("p=%d", p), want, got, wantErr, err)
		}
	}
}

// morselValues is a VALUES source that splits into morsels of per rows,
// striped across the workers (worker i claims morsels i, i+workers, …) so
// every worker of the pool sees its own share whatever the scheduling.
type morselValues struct {
	ValuesScan
	per int
}

func (m *morselValues) SplitMorsels(workers int) ([]MorselSource, error) {
	srcs := make([]MorselSource, workers)
	for i := range srcs {
		srcs[i] = &valuesMorsel{m: m, first: int64(i), stride: int64(workers)}
	}
	return srcs, nil
}

type valuesMorsel struct {
	m                        *morselValues
	first, stride, cur, next int64
	done                     bool
}

func (v *valuesMorsel) Columns() []string { return v.m.Cols }
func (v *valuesMorsel) Close() error      { return nil }
func (v *valuesMorsel) NumMorsels() int64 { return int64((len(v.m.Rows) + v.m.per - 1) / v.m.per) }
func (v *valuesMorsel) Open() error       { v.next, v.done = v.first, true; return nil }

func (v *valuesMorsel) NextMorsel() (int64, bool) {
	if v.next >= v.NumMorsels() {
		return 0, false
	}
	v.cur, v.done = v.next, false
	v.next += v.stride
	return v.cur, true
}

func (v *valuesMorsel) NextBatch() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	v.done = true
	lo := int(v.cur) * v.m.per
	return batchFromRows(v.m.Rows[lo:min(lo+v.m.per, len(v.m.Rows))], len(v.m.Cols)), nil
}
