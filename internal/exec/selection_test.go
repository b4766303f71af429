package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// filterFixture builds the table "flat" that the selection-kernel suites
// filter: k BIGINT (NULLs), id BIGINT (the row number), x and y DOUBLE
// (NULLs, NaN, +0 and −0), s VARCHAR and b BOOLEAN (NULLs). Its rows are
// sealed into 128-row chunks, so a scan spans sealed chunks, a tail and
// batches that start mid-chunk. x is NULL exactly on the rows where
// id % 11 = 3.
func filterFixture(tb testing.TB, rows int) *table.Catalog {
	tb.Helper()
	old := table.DefaultChunkRows
	table.DefaultChunkRows = 128
	defer func() { table.DefaultChunkRows = old }()
	cat := table.NewCatalog()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "k", Type: storage.TypeInt64},
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "y", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "s", Type: storage.TypeString},
		table.ColumnDef{Name: "b", Type: storage.TypeBool},
	)
	if err != nil {
		tb.Fatal(err)
	}
	flat, err := cat.Create("flat", schema)
	if err != nil {
		tb.Fatal(err)
	}
	null := expr.Null()
	batch := make([][]expr.Value, rows)
	for i := range batch {
		k := expr.Int(int64(i % 200))
		if i%7 == 3 {
			k = null
		}
		var x expr.Value
		switch i % 11 {
		case 0:
			x = expr.Float(math.NaN())
		case 1:
			x = expr.Float(0)
		case 2:
			x = expr.Float(math.Copysign(0, -1))
		case 3:
			x = null
		default:
			x = expr.Float(float64(i%50) - 24.5)
		}
		y := expr.Float(float64(i%40) - 20)
		switch {
		case i%13 == 0:
			y = null
		case i%17 == 0:
			y = expr.Float(math.NaN())
		case i%19 == 0:
			y = expr.Float(math.Copysign(0, -1))
		}
		s, b := expr.Str(fmt.Sprintf("s%d", i%5)), expr.Bool(i%2 == 0)
		if i%9 == 0 {
			s = null
		}
		if i%6 == 0 {
			b = null
		}
		batch[i] = []expr.Value{k, expr.Int(int64(i)), x, y, s, b}
	}
	if n, err := flat.AppendRows(batch); err != nil || n != rows {
		tb.Fatalf("append: %d, %v", n, err)
	}
	return cat
}

// filterAgrees runs q through the row reference and through the pipeline
// at each pool size. Rows, their order and their kinds, or the error text,
// must match the reference's. It returns the reference's row count and
// error.
func filterAgrees(tb testing.TB, cat *table.Catalog, q string, pools ...int) (int, error) {
	tb.Helper()
	var want []Row
	var wantErr error
	for _, strategy := range append([]int{rowRef}, pools...) {
		stmt, err := sql.Parse(q)
		if err != nil {
			tb.Fatalf("parse %q: %v", q, err)
		}
		op, err := buildStrategy(cat, stmt.(*sql.SelectStmt), strategy)
		if err != nil {
			if strategy == rowRef {
				return 0, err // a plan-time error: the pipeline plans the same way
			}
			tb.Fatalf("%q (%s): plan: %v", q, strategyName(strategy), err)
		}
		rows, runErr := Drain(op)
		if strategy == rowRef {
			want, wantErr = rows, runErr
			continue
		}
		if (runErr == nil) != (wantErr == nil) || (runErr != nil && runErr.Error() != wantErr.Error()) {
			tb.Fatalf("%q (%s): error %v, reference %v", q, strategyName(strategy), runErr, wantErr)
		}
		if len(rows) != len(want) {
			tb.Fatalf("%q (%s): %d rows, reference %d", q, strategyName(strategy), len(rows), len(want))
		}
		for r := range rows {
			for c := range rows[r] {
				if !sameValue(rows[r][c], want[r][c]) {
					tb.Fatalf("%q (%s) row %d col %d: %v (%s), reference %v (%s)",
						q, strategyName(strategy), r, c, rows[r][c], rows[r][c].K, want[r][c], want[r][c].K)
				}
			}
		}
	}
	return len(want), wantErr
}

// TestSelectionKernelsMatchReference runs WHEREs that take each kind of
// selection node against the row reference at pools 1 and 4. want says
// what the reference must do: keep some rows but not all ("some"), keep
// none ("none"), or fail ("error").
func TestSelectionKernelsMatchReference(t *testing.T) {
	const rows = 1000
	cat := filterFixture(t, rows)
	for _, c := range []struct{ where, want string }{
		// Literals on the left flip the comparison.
		{"100 > k", "some"},
		{"-5 <= x", "some"},
		{"10 = id", "some"},
		{"(-1.5) < y", "some"},
		// An int column against a float literal compares as a double.
		{"k < 99.5", "some"},
		{"id = 2.0", "some"},
		{"id = 2.5", "none"},
		{"id >= 2.5 AND id < 4.0", "some"},
		// A NULL literal keeps no row, on either side and under OR.
		{"k = NULL", "none"},
		{"NULL <> x", "none"},
		{"x = NULL OR id < 10", "some"},
		{"NOT (k = NULL)", "none"},
		// A string literal against a numeric column fails as the reference does.
		{"k = 's1'", "error"},
		{"'s1' < id", "error"},
		{"x > 0 OR k = 's1'", "error"},
		// NaN and ±0 in columns, against literals and each other.
		{"x = 0", "some"},
		{"x = -0.0", "some"},
		{"-0.0 >= x", "some"},
		{"x < 0", "some"},
		{"x <> x", "none"},
		{"x = y", "some"},
		{"x < y", "some"},
		{"y >= x", "some"},
		{"k > x", "some"},
		{"id = k", "some"},
		{"k <= id AND x > y", "some"},
		// NULL-masked columns.
		{"k > 50", "some"},
		{"k IS NULL", "some"},
		{"x IS NOT NULL AND k IS NULL", "some"},
		{"s = 's2'", "some"},
		{"b = 1", "some"},
		// OR and NOT over atoms that go NULL.
		{"k > 150 OR x IS NULL", "some"},
		{"NOT (k > 50 OR x < 0)", "some"},
		{"(k > 50 OR y > 0) AND x < 0", "some"},
		{"NOT (x > 0) OR k IS NULL", "some"},
		{"x > 0 OR y > 0 OR k < 10", "some"},
		{"(k IS NULL OR x > 0) AND (y < 0 OR id < 100)", "some"},
		// An AND whose right side fails only on rows where the left is NULL
		// still fails: x > 1000 is NULL, never TRUE, where the right side
		// fails, through a typed-looking comparison on a string column and
		// through a modulo by zero.
		{"x > 1000 AND s = 1", "error"},
		{"x > 0 AND 1 % (id % 11 - 3) = 0", "error"},
		{"x > 1000 AND (k < 5 OR s = 1)", "error"},
		// A FALSE left side decides the AND on every row: nothing fails.
		{"id < 0 AND s = 1", "none"},
	} {
		q := "SELECT id, x FROM flat WHERE " + c.where
		n, err := filterAgrees(t, cat, q, 1, 4)
		got := "some"
		switch {
		case err != nil:
			got = "error"
		case n == 0:
			got = "none"
		case n == rows:
			got = "all"
		}
		if got != c.want {
			t.Errorf("%s: the reference gives %s (%d rows, err %v), want %s", c.where, got, n, err, c.want)
		}
	}
}

// TestLogicalOperandErrorsAgree: in a select list, an AND or OR whose left
// operand is NULL still fails on a right operand that is no truth value,
// in the row reference as in the pipeline, with the same error text.
func TestLogicalOperandErrorsAgree(t *testing.T) {
	cat := filterFixture(t, 300)
	for _, q := range []string{
		"SELECT id, x > 1000 AND s FROM flat",
		"SELECT id, x < 1000 OR s FROM flat",
	} {
		if _, err := filterAgrees(t, cat, q, 1, 3); err == nil {
			t.Errorf("%s: the reference answers, want it to fail", q)
		}
	}
}

// TestKernelErrorsFailOnReferenceRow: kernels evaluate an operand over a
// whole batch at a time, but a statement fails on the row, and with the
// text, the row reference fails on first. Two select-list columns, or two
// aggregate arguments, fail on different rows; a WHERE fails after the
// projection above it does; a LIMIT stops before any row fails.
func TestKernelErrorsFailOnReferenceRow(t *testing.T) {
	cat := filterFixture(t, 300)
	for _, c := range []struct {
		q    string
		fail bool
	}{
		{"SELECT id, 1 % (id % 11 - 3), 10.0 / x FROM flat", true},
		{"SELECT id % 5, sum(1 % (id % 11 - 3)), sum(10.0 / x) FROM flat GROUP BY id % 5", true},
		{"SELECT 10.0 / x, sum(1 % (id % 11 - 3)), max(s) FROM flat GROUP BY 10.0 / x", true},
		{"SELECT id, 1 / (id - 1) FROM flat WHERE 1 % (id % 11 - 3) <> 7", true},
		{"SELECT count(*), sum(10.0 / (id - 2)) FROM flat WHERE 1 % (id % 11 - 3) <> 7", true},
		{"SELECT id, x > 1000 AND 1 % (id % 11 - 3) = 0, 10.0 / x FROM flat", true},
		{"SELECT id, 1 % (id % 11 - 3) FROM flat LIMIT 3", false},
		{"SELECT id FROM flat WHERE 1 % (id % 11 - 3) = 1 LIMIT 1", false},
	} {
		if _, err := filterAgrees(t, cat, c.q, 1, 3); (err != nil) != c.fail {
			t.Errorf("%s: the reference gives error %v, want failure %v", c.q, err, c.fail)
		}
	}
}

// TestSortedIntLitMatchesScan runs the binary-search leaf against
// keepIntLit, the loop it stands in for, over random non-decreasing runs
// with duplicates and the int64 extremes: every operator, literals below,
// at, inside and above the run, and contiguous selections that start
// mid-batch, some of them narrowed in place. Through cmpSel.eval, a
// non-contiguous selection of a sorted vector must keep the same rows too.
// Runs longer than a batch take appendRun's loop.
func TestSortedIntLitMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(BatchSize)
		if iter%10 == 0 {
			n += BatchSize
		}
		xs := make([]int64, n)
		for i := range xs {
			switch rng.Intn(20) {
			case 0:
				xs[i] = math.MinInt64
			case 1:
				xs[i] = math.MaxInt64
			default:
				xs[i] = rng.Int63n(60) - 30 // many duplicates
			}
		}
		slices.Sort(xs)
		lits := []int64{math.MinInt64, math.MaxInt64, xs[0], xs[n-1], xs[rng.Intn(n)], rng.Int63n(70) - 35}
		if xs[0] > math.MinInt64 {
			lits = append(lits, xs[0]-1)
		}
		if xs[n-1] < math.MaxInt64 {
			lits = append(lits, xs[n-1]+1)
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		run := identityRows(lo, hi)
		var sparse []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				sparse = append(sparse, i)
			}
		}
		b := &Batch{N: n, Cols: []*Vector{{Kind: expr.KindInt, I: xs, Sorted: true}}}
		for _, op := range ops {
			for _, lit := range lits {
				want := keepIntLit(xs, op, lit, run, nil)
				if got := keepSortedIntLit(xs, op, lit, run, nil); !slices.Equal(got, want) {
					t.Fatalf("%v %s %d over [%d, %d): kept %v, want %v", xs, op, lit, lo, hi, got, want)
				}
				inPlace := slices.Clone(run)
				if got := keepSortedIntLit(xs, op, lit, inPlace, inPlace[:0]); !slices.Equal(got, want) {
					t.Fatalf("%v %s %d over [%d, %d) in place: kept %v, want %v", xs, op, lit, lo, hi, got, want)
				}
				c := cmpSel{l: colKernel(0), op: op, lit: lit, isLit: true}
				for _, sel := range [][]int{run, sparse} {
					want := keepIntLit(xs, op, lit, sel, nil)
					got, nulls, err := c.eval(b, sel, nil, nil)
					if err != nil || !slices.Equal(got, want) || len(nulls) > 0 {
						t.Fatalf("%v %s %d over %v: cmpSel kept %v (%v), want %v", xs, op, lit, sel, got, err, want)
					}
				}
			}
		}
	}
}

func identityRows(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	return rows
}

// runsFixture builds the table "runs" whose column a takes each kind of
// chunk the sorted leaf must tell apart: a sorted sealed chunk with
// duplicates, a sorted chunk holding one NULL, a descending chunk and an
// unsorted tail. id is the row number, so a leaf on it hands a on
// contiguous selections that start mid-batch.
func runsFixture(tb testing.TB) *table.Catalog {
	tb.Helper()
	old := table.DefaultChunkRows
	table.DefaultChunkRows = 128
	defer func() { table.DefaultChunkRows = old }()
	cat := table.NewCatalog()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "a", Type: storage.TypeInt64},
	)
	if err != nil {
		tb.Fatal(err)
	}
	runs, err := cat.Create("runs", schema)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([][]expr.Value, 3*128+50)
	for i := range rows {
		var a expr.Value
		switch j := i % 128; i / 128 {
		case 0:
			a = expr.Int(int64(j / 3))
		case 1:
			a = expr.Int(int64(j / 2))
			if j == 40 {
				a = expr.Null()
			}
		case 2:
			a = expr.Int(int64(127 - j))
		default:
			a = expr.Int(rng.Int63n(100))
		}
		rows[i] = []expr.Value{expr.Int(int64(i)), a}
	}
	if n, err := runs.AppendRows(rows); err != nil || n != len(rows) {
		tb.Fatalf("append: %d, %v", n, err)
	}
	return cat
}

// TestSortedRunsMatchReference filters every kind of chunk of runsFixture
// against the row reference at pools 1 and 3.
func TestSortedRunsMatchReference(t *testing.T) {
	cat := runsFixture(t)
	tb, err := cat.Lookup("runs")
	if err != nil {
		t.Fatal(err)
	}
	v := tb.Chunks()
	var sorted []bool
	for k := 0; k < v.NumChunks(); k++ {
		sorted = append(sorted, v.Sorted(k, 1))
	}
	if !slices.Equal(sorted, []bool{true, false, false, false}) {
		t.Fatalf("chunks of a report sorted %v, want only the first", sorted)
	}
	for _, where := range []string{
		"a = 20", "a <> 20", "a < 20", "a <= 20", "a > 20", "a >= 20",
		"a >= 10 AND a < 40", "a < -1", "a > 200", "a <= 127", "a >= 0",
		"id >= 5 AND a < 30", "id > 200 AND id < 300 AND a = 50",
		"id < 100 AND a <> 12", "20 > a OR a = 100",
		"id % 2 = 0 AND a < 30", "a IS NULL OR a = 7",
	} {
		filterAgrees(t, cat, "SELECT id, a FROM runs WHERE "+where, 1, 3)
	}
}

// TestSelectionChainsTypedAnd pins the shape of the selection tree: AND,
// OR and NOT are nodes, every comparison is a leaf whatever its operands,
// and only an expression that is no boolean is a truth leaf.
func TestSelectionChainsTypedAnd(t *testing.T) {
	cols := []string{"flat.k", "flat.id", "flat.x", "flat.s", "flat.b"}
	for _, c := range []struct{ where, shape string }{
		{"k >= 1 AND k < 5", "and(cmp,cmp)"},
		{"100 > k", "cmp"},
		{"x IS NULL AND (k = 1 OR id = 2.5)", "and(null,or(cmp,cmp))"},
		{"k = 1 AND x + 1 > 0", "and(cmp,cmp)"},
		{"x + 1 > 0 AND k = 1", "and(cmp,cmp)"},
		{"k = 1 OR s = 's1'", "or(cmp,cmp)"},
		{"k = NULL", "cmp"},
		{"NOT (k = 1)", "not(cmp)"},
		{"b OR x", "or(truth,truth)"},
	} {
		pred, err := expr.Parse(c.where)
		if err != nil {
			t.Fatal(err)
		}
		s, err := compileSelection(pred, cols)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if got := selShape(s); got != c.shape {
			t.Errorf("%s: shape %s, want %s", c.where, got, c.shape)
		}
	}
}

func selShape(s selNode) string {
	switch n := s.(type) {
	case *andSel:
		return "and(" + selShape(n.l) + "," + selShape(n.r) + ")"
	case *orSel:
		return "or(" + selShape(n.l) + "," + selShape(n.r) + ")"
	case *notSel:
		return "not(" + selShape(n.c) + ")"
	case *cmpSel:
		return "cmp"
	case *nullSel:
		return "null"
	}
	return "truth"
}

// FuzzFilterMatchesReference decodes arbitrary bytes into a predicate over
// filterFixture's table — comparisons between its columns, numeric, string,
// boolean and NULL literals and a few expressions that can fail, joined by
// AND, OR and NOT — and runs it as a WHERE and as a value, a select-list
// column. The pipeline at pools 1 and 3 must give the row reference's rows,
// in order, with its TRUE, FALSE and NULL values, or its error text.
func FuzzFilterMatchesReference(f *testing.F) {
	cat := filterFixture(f, 600)
	for _, seed := range []string{
		"\x00\x00\x00\x00",
		"\x04\x00\x01\x02\x00\x03\x04\x05",
		"\x05\x00\x02\x03\x01\x04\x05\x06",
		"\x06\x05\x00\x01\x02\x03\x00\x04\x05",
		"\x04\x01\x02\x02\x03\x00\x07\x03\x01",
		"\x03\x01\x04\x02\x00\x0b\x05",
		// Leaves on id, a sorted run in every sealed chunk.
		"\x00\x01\x00\x0b",                     // id = 100
		"\x00\x0b\x04\x01",                     // 100 > id
		"\x04\x00\x01\x05\x0b\x00\x01\x02\x0d", // id >= 100 AND id < 9007199254740993
		"\x05\x00\x01\x01\x0b\x00\x0c\x00\x01", // id <> 100 OR -3 = id
		"\x04\x00\x01\x03\x08\x00\x01\x04\x0c", // id <= 1 AND id > -3
		"\x04\x00\x00\x02\x0b\x00\x01\x05\x11", // k < 100 AND id >= k + 1
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pred := (&whereDecoder{data: data}).pred(0)
		filterAgrees(t, cat, "SELECT id, k, x FROM flat WHERE "+pred, 1, 3)
		filterAgrees(t, cat, "SELECT id, "+pred+" FROM flat", 1, 3)
	})
}

// whereDecoder reads a predicate from bytes; exhausted input reads as
// zeros, so every input decodes.
type whereDecoder struct{ data []byte }

func (d *whereDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

var (
	fuzzOperands = []string{
		"k", "id", "x", "y", "s", "b",
		"0", "-0.0", "1", "2.5", "99.5", "100", "-3", "9007199254740993",
		"NULL", "'s1'", "TRUE",
		"k + 1", "x * 2", "1 % (id % 11 - 3)", "10.0 / x",
	}
	fuzzCmps = []string{"=", "<>", "<", "<=", ">", ">="}
)

// pred decodes one predicate; past depth 3 only atoms.
func (d *whereDecoder) pred(depth int) string {
	op := d.next()
	if depth >= 3 {
		op %= 3
	}
	switch op % 8 {
	case 3:
		not := []string{"", " NOT"}[d.next()%2]
		return fmt.Sprintf("%s IS%s NULL", d.operand(), not)
	case 4:
		return fmt.Sprintf("(%s AND %s)", d.pred(depth+1), d.pred(depth+1))
	case 5:
		return fmt.Sprintf("(%s OR %s)", d.pred(depth+1), d.pred(depth+1))
	case 6:
		return fmt.Sprintf("NOT (%s)", d.pred(depth+1))
	case 7:
		return []string{"b", "x", "k", "s"}[d.next()%4] // a bare column's truth value
	}
	l, cmp, r := d.operand(), fuzzCmps[d.next()%len(fuzzCmps)], d.operand()
	return strings.Join([]string{l, cmp, r}, " ")
}

func (d *whereDecoder) operand() string { return fuzzOperands[d.next()%len(fuzzOperands)] }
