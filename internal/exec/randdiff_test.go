package exec

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// Randomized differential testing: a seeded generator produces queries —
// projections, filters, GROUP BY aggregates, ORDER BY/LIMIT, equi-joins —
// over partitioned and unpartitioned fixtures, and every query runs through
// the row reference (its logical plan drained on the row operators) and
// through the vectorized pipeline at 1, 2 and 4 workers. Every lowered plan
// must be one pipeline, and all strategies must agree on results (exactly,
// except that MIN/MAX may return an equal value and SUM/AVG/VAR/STDDEV may
// differ within their summation error bound; see aggBound) and on error
// messages.
//
// The run is deterministic from the logged seed: reproduce a failure with
//
//	RANDDIFF_SEED=<seed> RANDDIFF_ITERS=<n> go test -run TestRandomizedDifferential ./internal/exec
//
// RANDDIFF_ITERS bounds the query count (default 500; the race job runs a
// smaller bound). One equi-join query per four follows those, then one
// GROUP BY over the join tables per four, each loop drawn from a stream of
// its own so the corpora before it do not depend on it.

const (
	defaultRanddiffIters = 500
	defaultRanddiffSeed  = 20260730
)

func randdiffConfig(t *testing.T) (seed int64, iters int) {
	t.Helper()
	seed, iters = defaultRanddiffSeed, defaultRanddiffIters
	if s := os.Getenv("RANDDIFF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad RANDDIFF_SEED %q: %v", s, err)
		}
		seed = v
	}
	if s := os.Getenv("RANDDIFF_ITERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad RANDDIFF_ITERS %q", s)
		}
		iters = v
	}
	if testing.Short() {
		iters = min(iters, 60)
	}
	return seed, iters
}

// randdiffFixture builds a partitioned table "t" and an identical
// unpartitioned "flat": k BIGINT (partition key, no NULLs), id BIGINT, x/y
// DOUBLE and s VARCHAR and b BOOLEAN with NULLs sprinkled in.
func randdiffFixture(t *testing.T, rng *rand.Rand, rows int) *table.Catalog {
	t.Helper()
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
		t.Fatal(err)
	}
	if err := cat.Declare(table.Decl{Name: "t", Cols: schema.Cols, PartCol: "k", Parts: []table.RangePartition{
		{Name: "p0", Upper: 100},
		{Name: "p1", Upper: 200},
		{Name: "p2", Upper: 300},
		{Name: "p3", Max: true},
	}}); err != nil {
		t.Fatal(err)
	}
	pt, _ := cat.GetPartitioned("t")
	flat, err := cat.Create("flat", schema)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]expr.Value, 0, rows)
	maybeNull := func(p float64, v expr.Value) expr.Value {
		if rng.Float64() < p {
			return expr.Null()
		}
		return v
	}
	for i := 0; i < rows; i++ {
		row := []expr.Value{
			expr.Int(int64(rng.Intn(400))),
			expr.Int(int64(i)),
			maybeNull(0.08, expr.Float(float64(rng.Intn(2000))/100-10)),
			maybeNull(0.08, expr.Float(rng.NormFloat64()*50)),
			maybeNull(0.05, expr.Str(fmt.Sprintf("s%d", rng.Intn(9)))),
			maybeNull(0.05, expr.Bool(rng.Intn(2) == 0)),
		}
		batch = append(batch, row)
	}
	if n, err := pt.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("append t: %d, %v", n, err)
	}
	if n, err := flat.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("append flat: %d, %v", n, err)
	}
	return cat
}

// joinFixture adds a join partner: id BIGINT (the row number), k BIGINT and
// f DOUBLE keys drawn from pools that meet t's keys and each other —
// NULLs, ±0, NaN, values at and beyond 2^53, INTs equal to DOUBLEs — and g
// BIGINT with four values, so ORDER BY g ties heavily.
func joinFixture(t *testing.T, rng *rand.Rand, cat *table.Catalog, name string, rows int) {
	t.Helper()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "k", Type: storage.TypeInt64},
		table.ColumnDef{Name: "f", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "g", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Create(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	const big = 1 << 53
	ints := []expr.Value{expr.Null(), expr.Int(0), expr.Int(1), expr.Int(-1), expr.Int(250),
		expr.Int(big), expr.Int(big + 1), expr.Int(big - 1), expr.Int(399)}
	floats := []expr.Value{expr.Null(), expr.Float(0), expr.Float(math.Copysign(0, -1)), expr.Float(math.NaN()),
		expr.Float(1), expr.Float(-1), expr.Float(2.5), expr.Float(big), expr.Float(250)}
	batch := make([][]expr.Value, rows)
	for i := range batch {
		k := ints[rng.Intn(len(ints))]
		if rng.Intn(2) == 0 {
			k = expr.Int(int64(rng.Intn(400)))
		}
		f := floats[rng.Intn(len(floats))]
		if rng.Intn(3) == 0 {
			f = expr.Float(float64(rng.Intn(2000))/100 - 10)
		}
		batch[i] = []expr.Value{expr.Int(int64(i)), k, f, expr.Int(int64(rng.Intn(4)))}
	}
	if n, err := tb.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("append %s: %d, %v", name, n, err)
	}
}

// genQuery emits one random SELECT; grouped reports whether it aggregates
// (its results then compare with float tolerance), ordered whether output
// order is fully determined.
func genQuery(rng *rand.Rand) (q string, grouped, ordered bool) {
	from := "t"
	if rng.Intn(2) == 0 {
		from = "flat"
	}
	var sb strings.Builder
	where := genWhere(rng)

	if rng.Intn(3) > 0 { // 2/3 aggregate queries
		grouped = true
		keys := [][2]string{
			{"k % 4", "kmod"},
			{"s", "s"},
			{"b", "b"},
			{"k", "k"},
			{"id % 10", "idmod"},
		}
		nk := 1 + rng.Intn(2)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		sel := keys[:nk]
		aggPool := []string{"count(*)", "count(x)", "sum(x)", "avg(y)", "min(x)", "max(y)", "sum(x + y)", "min(s)", "max(s)", "var(x)"}
		na := 1 + rng.Intn(3)
		var items []string
		var keyExprs []string
		for _, kk := range sel {
			items = append(items, fmt.Sprintf("%s AS %s", kk[0], kk[1]))
			keyExprs = append(keyExprs, kk[0])
		}
		for i := 0; i < na; i++ {
			items = append(items, aggPool[rng.Intn(len(aggPool))])
		}
		fmt.Fprintf(&sb, "SELECT %s FROM %s", strings.Join(items, ", "), from)
		if where != "" {
			fmt.Fprintf(&sb, " WHERE %s", where)
		}
		fmt.Fprintf(&sb, " GROUP BY %s", strings.Join(keyExprs, ", "))
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " HAVING count(*) > %d", rng.Intn(3))
		}
		// Always order by the group keys: deterministic output without
		// ordering by merged float aggregates.
		var ord []string
		for _, kk := range sel {
			dir := ""
			if rng.Intn(3) == 0 {
				dir = " DESC"
			}
			ord = append(ord, kk[1]+dir)
		}
		fmt.Fprintf(&sb, " ORDER BY %s", strings.Join(ord, ", "))
		ordered = true
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(20))
		}
		return sb.String(), grouped, ordered
	}

	// Plain projection query.
	projPool := []string{"k", "id", "x", "y", "s", "b", "x + y", "id * 2", "-x", "abs(x)", "round(y)", "x IS NULL", "id % 7",
		// Booleans as values, and two columns that fail on different rows.
		"x > 0 AND s = 's1'", "NOT b", "b OR x IS NULL", "NOT (k < 5 AND x > 0)", "1 % (id % 11 - 3), 10.0 / x"}
	np := 1 + rng.Intn(4)
	var items []string
	for i := 0; i < np; i++ {
		items = append(items, projPool[rng.Intn(len(projPool))])
	}
	fmt.Fprintf(&sb, "SELECT id, %s FROM %s", strings.Join(items, ", "), from)
	if where != "" {
		fmt.Fprintf(&sb, " WHERE %s", where)
	}
	if rng.Intn(2) == 0 {
		// id is unique, so ordering by it is total.
		dir := ""
		if rng.Intn(2) == 0 {
			dir = " DESC"
		}
		fmt.Fprintf(&sb, " ORDER BY id%s", dir)
		ordered = true
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(50))
		}
	}
	return sb.String(), grouped, ordered
}

// genJoinQuery emits one equi-join: INT, DOUBLE and mixed key pairs, one
// or two joins, with and without WHERE, GROUP BY and ORDER BY … LIMIT. Join
// output keeps its input order (left rows in scan order, matches in build
// order) in every strategy, so results compare positionally even when the
// ORDER BY keys tie — which is how the top-k's tie order is checked.
func genJoinQuery(rng *rand.Rand) (q string, grouped, ordered bool) {
	joins := []struct{ from, l, r, where string }{
		{"t JOIN u ON t.k = u.k", "t", "u", "t.x > 0"},
		{"flat JOIN u ON flat.x = u.f", "flat", "u", "flat.s <> 's1'"},
		{"flat JOIN u ON flat.k = u.f", "flat", "u", "u.g < 2"},
		{"u JOIN v ON u.k = v.k", "u", "v", "v.g <> 1"},
		{"u JOIN v ON u.f = v.f", "u", "v", "u.k IS NOT NULL"},
		{"u JOIN v ON u.k = v.f", "u", "v", "v.f < 1"},
		{"u JOIN v ON v.k = u.f AND u.g = v.g", "u", "v", "u.f >= 0"},
		{"u JOIN t ON u.k = t.k JOIN v ON t.k = v.k", "u", "v", "t.b"},
		{"u JOIN v ON u.g = v.g", "u", "v", "u.k < 10 AND v.k < 10"},
	}
	j := joins[rng.Intn(len(joins))]
	var sb strings.Builder
	where := ""
	if rng.Intn(2) == 0 {
		where = " WHERE " + j.where
	}
	if rng.Intn(3) == 0 {
		val := j.l + ".x"
		if j.l == "u" {
			val = "u.f"
		}
		fmt.Fprintf(&sb, "SELECT u.g AS grp, count(*), sum(%s.id), min(%s) FROM %s%s GROUP BY u.g ORDER BY grp",
			j.l, val, j.from, where)
		if rng.Intn(2) == 0 {
			sb.WriteString(" DESC")
		}
		return sb.String(), true, true
	}
	fmt.Fprintf(&sb, "SELECT %s.id, %s.id, %s.g FROM %s%s", j.l, j.r, j.r, j.from, where)
	switch rng.Intn(3) {
	case 0: // ties on g break by input position
		dir := ""
		if rng.Intn(2) == 0 {
			dir = " DESC"
		}
		fmt.Fprintf(&sb, " ORDER BY %s.g%s", j.r, dir)
	case 1:
		fmt.Fprintf(&sb, " ORDER BY %s.g, %s.id DESC", j.r, j.l)
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(60))
	}
	return sb.String(), false, true
}

// genGroupQuery emits one GROUP BY over a join table (u or v): keys k
// (nullable BIGINT around 2^53), f (±0, NaN, NULL) and (k, g); aggregates
// that keep the Welford state (var, stddev), that fold BIGINT arguments
// typed (sum, avg over k), count(f), and MIN/MAX over both columns' ties
// and NULLs; and WHERE atoms that go NULL under AND, OR and NOT. Groups
// come out in first-seen order in every strategy, so results compare
// positionally with or without the ORDER BY.
func genGroupQuery(rng *rand.Rand) (q string, grouped, ordered bool) {
	keys := []string{"k", "f", "k, g"}[rng.Intn(3)]
	aggPool := []string{"var(f)", "stddev(k)", "sum(k)", "avg(k)", "count(f)", "count(*)", "min(k)", "max(k)", "min(f)", "max(f)"}
	rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s, %s FROM %s", keys, strings.Join(aggPool[:1+rng.Intn(3)], ", "),
		[]string{"u", "v"}[rng.Intn(2)])
	if rng.Intn(4) > 0 {
		atoms := []string{"k > 100", "f < 1", "f = 0", "k = 9007199254740993", "g = 2",
			"NOT (k < 250)", "NOT (f > 0)", "k IS NULL", "f IS NOT NULL"}
		a, b := atoms[rng.Intn(len(atoms))], atoms[rng.Intn(len(atoms))]
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, " WHERE %s", a)
		case 1:
			fmt.Fprintf(&sb, " WHERE %s AND %s", a, b)
		case 2:
			fmt.Fprintf(&sb, " WHERE %s OR %s", a, b)
		default:
			fmt.Fprintf(&sb, " WHERE NOT (%s OR %s)", a, b)
		}
	}
	fmt.Fprintf(&sb, " GROUP BY %s", keys)
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " ORDER BY %s", keys)
	}
	return sb.String(), true, true
}

func genWhere(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return ""
	}
	atoms := []string{
		"k < 100", "k >= 100 AND k < 300", "k = 250", "k > 380",
		"x > 0", "x <= 2.5", "y < 10 OR y > 40", "x IS NULL", "y IS NOT NULL",
		"s = 's3'", "s <> 's1'", "b", "NOT b", "b IS NULL",
		"x BETWEEN -2 AND 6", "id % 3 = 1", "x + y > 0",
		"x <> 0 AND 10.0 / x > 2", // guarded division
		"id >= 2990",              // flat: prunes every sealed chunk, one morsel (the tail) survives
		"100 > k", "-2.5 <= x",    // literals on the left
		"k < 99.5", "id = 2.0", // int columns against float literals
		"x = NULL", "NULL < k", // NULL literals keep no row
	}
	n := 1 + rng.Intn(3)
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, atoms[rng.Intn(len(atoms))])
	}
	op := " AND "
	if rng.Intn(3) == 0 {
		op = " OR "
	}
	return "(" + strings.Join(parts, op) + ")"
}

// rowRef is the strategy that drains a query's logical plan through the row
// reference (rowReference): the oracle every other strategy, a worker budget
// of the pipeline, is compared against.
const rowRef = 0

// randdiffStrategies are the execution strategies every generated query
// must agree across: the row reference first, then the pipeline at 1, 2 and
// 4 workers.
func randdiffStrategies() []int { return []int{rowRef, 1, 2, 4} }

// buildStrategy plans st for one strategy.
func buildStrategy(cat *table.Catalog, st *sql.SelectStmt, strategy int) (Operator, error) {
	if strategy == rowRef {
		n, err := buildPlan(cat, st, nil)
		if err != nil {
			return nil, err
		}
		return rowReference(n), nil
	}
	return BuildSelect(cat, st, nil, strategy)
}

func strategyName(strategy int) string {
	if strategy == rowRef {
		return "row"
	}
	return fmt.Sprintf("workers=%d", strategy)
}

func TestRandomizedDifferential(t *testing.T) {
	seed, iters := randdiffConfig(t)
	t.Logf("randdiff: seed=%d iters=%d (set RANDDIFF_SEED / RANDDIFF_ITERS to reproduce)", seed, iters)
	rng := rand.New(rand.NewSource(seed))
	withSmallMorsels(t, 256)
	cat := randdiffFixture(t, rng, 3000)

	// The differential corpus only exercises the chunked paths if the fixture
	// actually spans chunks: pin the shape so a future DefaultChunkRows or
	// fixture-size change can't silently collapse it to a single tail.
	flat, ok := cat.Get("flat")
	if !ok {
		t.Fatal("fixture missing flat table")
	}
	if cv := flat.Chunks(); cv.NumSealed() < 4 || cv.NumChunks() == cv.NumSealed() {
		t.Fatalf("fixture shape: %d sealed chunks, %d total — want ≥4 sealed plus a hot tail",
			cv.NumSealed(), cv.NumChunks())
	}

	for i := 0; i < iters; i++ {
		q, grouped, ordered := genQuery(rng)
		checkRanddiff(t, cat, i, q, grouped, ordered)
	}

	jrng := rand.New(rand.NewSource(seed + 1))
	joinFixture(t, jrng, cat, "u", 300)
	joinFixture(t, jrng, cat, "v", 300)
	for i := iters; i < iters+max(iters/4, 1); i++ {
		q, grouped, ordered := genJoinQuery(jrng)
		checkRanddiff(t, cat, i, q, grouped, ordered)
	}

	grng := rand.New(rand.NewSource(seed + 2))
	for i := iters + max(iters/4, 1); i < iters+2*max(iters/4, 1); i++ {
		q, grouped, ordered := genGroupQuery(grng)
		checkRanddiff(t, cat, i, q, grouped, ordered)
	}
}

// checkRanddiff runs one generated query through every strategy, checks
// that each lowered plan is one pipeline, and compares each result with the
// row reference's.
func checkRanddiff(t *testing.T, cat *table.Catalog, i int, q string, grouped, ordered bool) {
	t.Helper()
	var want []Row
	var wantErr error
	var bounds []aggBound
	var extra int
	for _, strategy := range randdiffStrategies() {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("iter %d: generator produced unparsable query %q: %v", i, q, err)
		}
		st := stmt.(*sql.SelectStmt)
		if strategy == rowRef && grouped {
			bounds, extra = addBoundCompanions(st)
		}
		op, err := buildStrategy(cat, st, strategy)
		if err != nil {
			t.Fatalf("iter %d: plan %q (%s): %v", i, q, strategyName(strategy), err)
		}
		if strategy != rowRef {
			if err := OnePipeline(PlanString(op)); err != nil {
				t.Fatalf("iter %d: %q (%s): %v", i, q, strategyName(strategy), err)
			}
		}
		rows, runErr := Drain(op)
		if strategy == rowRef {
			want, wantErr = rows, runErr
			continue
		}
		if (runErr == nil) != (wantErr == nil) {
			t.Fatalf("iter %d: %q: row err = %v, %s err = %v", i, q, wantErr, strategyName(strategy), runErr)
		}
		if runErr != nil {
			if runErr.Error() != wantErr.Error() {
				t.Fatalf("iter %d: %q: error mismatch:\n  row:  %v\n  %s: %v", i, q, wantErr, strategyName(strategy), runErr)
			}
			continue
		}
		compareRanddiff(t, i, q, strategy, want, rows, bounds, extra, ordered)
	}
}

// aggBound is how far one aggregate result column may stray from the row
// reference's. MIN and MAX must match it bit for bit, sign of zero included
// (any NaN matches any NaN): aggState.fold breaks ties by one rule, so which
// worker claimed which morsel cannot change them. SUM and AVG may differ
// within the error bound of the summation they perform, n·ε·Σ|xᵢ|, with ε =
// 2⁻⁵² and n and Σ|xᵢ| taken from the row reference over the same group's
// rows. Two evaluation orders of a sum of n terms, such as the row fold and
// the pipeline's per-worker partials merged, each err by at most
// γ(n−1)·Σ|xᵢ| (Higham, Accuracy and Stability of Numerical Algorithms,
// §4.2), so they differ by at most n·ε·Σ|xᵢ|. VAR and STDDEV keep a 10⁻⁹
// relative tolerance (closeValue), which a zero-variance reference turns
// into an exact compare: the Welford state must not cancel where a naive
// Σx²−n·x̄² fold would.
type aggBound struct {
	kind   AggKind
	col    int // result column
	n, mag int // SUM/AVG: companion columns count(x) and sum(abs(x))
}

// addBoundCompanions returns the bounds of st's MIN/MAX/SUM/AVG/VAR/STDDEV
// items. For each SUM/AVG item over x it appends count(x) and sum(abs(x))
// to st's select list, so the row reference reports the bound's inputs
// after the query's own columns; appended aggregates change neither the
// groups nor their order. It reports how many columns it appended.
func addBoundCompanions(st *sql.SelectStmt) (bounds []aggBound, extra int) {
	n := len(st.Items)
	for c := 0; c < n; c++ {
		call, ok := st.Items[c].Expr.(*expr.Call)
		if !ok {
			continue
		}
		kind, ok := IsAggregateCall(call)
		switch {
		case !ok || kind == AggCount:
			continue
		case kind != AggSum && kind != AggAvg:
			bounds = append(bounds, aggBound{kind: kind, col: c})
			continue
		}
		x := call.Args[0]
		bounds = append(bounds, aggBound{kind: kind, col: c, n: len(st.Items), mag: len(st.Items) + 1})
		st.Items = append(st.Items,
			sql.SelectItem{Expr: &expr.Call{Name: "count", Args: []expr.Expr{x}}},
			sql.SelectItem{Expr: &expr.Call{Name: "sum", Args: []expr.Expr{&expr.Call{Name: "abs", Args: []expr.Expr{x}}}}})
	}
	return bounds, len(st.Items) - n
}

// admits reports whether got is a correct value of the bound's column,
// given the reference row.
func (b aggBound) admits(ref Row, got expr.Value) bool {
	want := ref[b.col]
	switch {
	case b.kind == AggMin || b.kind == AggMax:
		return sameValue(want, got) && (math.Signbit(want.F) == math.Signbit(got.F) || math.IsNaN(want.F))
	case sameValue(want, got):
		return true
	case want.K != got.K:
		return false
	case b.kind == AggVar || b.kind == AggStdDev:
		return closeValue(want, got)
	}
	return want.K == expr.KindFloat && math.Abs(want.F-got.F) <= b.tolerance(ref)
}

// tolerance is the summation error bound of a SUM or AVG column. Σ|xᵢ| is
// an integer column when x is.
func (b aggBound) tolerance(ref Row) float64 {
	const eps = 0x1p-52
	n := float64(ref[b.n].I)
	mag, _ := ref[b.mag].AsFloat() // 0 for a group of NULLs, whose SUM/AVG is NULL
	if b.kind == AggAvg {
		// The sum's bound divided by n, plus the division's rounding.
		return (n + 1) * eps * mag / n
	}
	return n * eps * mag
}

// compareRanddiff compares a strategy's result against the row reference's.
// Ordered results compare positionally; unordered ones as sorted multisets.
// Aggregate columns compare within their bounds (grouped results are always
// ordered, and reference rows carry extra columns of bound inputs after the
// query's); everything else must match exactly.
func compareRanddiff(t *testing.T, iter int, q string, strategy int, want, got []Row, bounds []aggBound, extra int, ordered bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("iter %d: %q (%s): %d rows, want %d", iter, q, strategyName(strategy), len(got), len(want))
	}
	w, g := want, got
	if !ordered {
		w, g = sortedRows(want), sortedRows(got)
	}
	byCol := make(map[int]aggBound, len(bounds))
	for _, b := range bounds {
		byCol[b.col] = b
	}
	for r := range w {
		if len(w[r])-extra != len(g[r]) {
			t.Fatalf("iter %d: %q (%s) row %d: width %d vs %d", iter, q, strategyName(strategy), r, len(g[r]), len(w[r])-extra)
		}
		for c := range g[r] {
			same := sameValue(w[r][c], g[r][c])
			if b, ok := byCol[c]; ok {
				same = b.admits(w[r], g[r][c])
			}
			if !same {
				t.Fatalf("iter %d: %q (%s) row %d col %d: %v (%s) vs reference %v (%s)",
					iter, q, strategyName(strategy), r, c, g[r][c], g[r][c].K, w[r][c], w[r][c].K)
			}
		}
	}
}

// sortedRows returns rows sorted by their rendered form (multiset compare).
func sortedRows(rows []Row) []Row {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for c, v := range r {
			if c > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%s:%s", v.K, v)
		}
		keys[i] = sb.String()
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// TestDifferentialUnderColumnBudgets reruns the error corpus and the
// randomized differential with the decoded-column cache disabled and with
// room for one column frame, so the reference and the pipeline read chunks
// whose frames are decoded, cached and evicted one column at a time, often
// within one chunk read. Answers and error texts must still agree. The
// error corpus runs over 4-row chunks so its fixture seals. RANDDIFF_SEED
// picks the seed as for TestRandomizedDifferential; RANDDIFF_ITERS
// defaults to 100 here.
func TestDifferentialUnderColumnBudgets(t *testing.T) {
	if os.Getenv("RANDDIFF_ITERS") == "" {
		t.Setenv("RANDDIFF_ITERS", "100")
	}
	for _, c := range []struct {
		name                string
		errBudget, rdBudget int64
	}{
		{"budget=0", 0, 0},
		{"budget=one column", 4 * 8, 256 * 8}, // one BIGINT frame of a 4- and a 256-row chunk
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Cleanup(func() { table.SetChunkCacheBudget(table.DefaultChunkCacheBytes) })
			t.Run("errors", func(t *testing.T) {
				withSmallMorsels(t, 4)
				table.SetChunkCacheBudget(c.errBudget)
				TestDifferentialErrors(t)
			})
			t.Run("randdiff", func(t *testing.T) {
				table.SetChunkCacheBudget(c.rdBudget)
				TestRandomizedDifferential(t)
			})
		})
	}
}
