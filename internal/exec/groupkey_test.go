package exec

import (
	"math"
	"math/rand"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// TestGroupKeyIdentity checks GROUP BY against a grouping oracle built on
// expr.Compare, in the row reference and at 1, 2 and 4 workers: two keys
// share a group exactly when every entry is NULL on both sides or compares
// equal.
// So -0 and 0 are one group (as `x = 0` counts both), NaN is one group,
// NULL is one group, and BIGINT keys at 2^53 ± 1 stay apart. Groups come out
// in first-seen order, each keyed by the value of its first row.
func TestGroupKeyIdentity(t *testing.T) {
	const morsel = 256
	withSmallMorsels(t, morsel)
	cat := table.NewCatalog()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "k", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	z, err := cat.Create("z", schema)
	if err != nil {
		t.Fatal(err)
	}
	const big = 1 << 53
	negZero := math.Copysign(0, -1)
	xs := []expr.Value{expr.Null(), expr.Float(0), expr.Float(negZero), expr.Float(math.NaN()),
		expr.Float(1), expr.Float(-1), expr.Float(2.5)}
	ks := []expr.Value{expr.Null(), expr.Int(0), expr.Int(1), expr.Int(-1),
		expr.Int(big), expr.Int(big + 1), expr.Int(big - 1)}
	rng := rand.New(rand.NewSource(30))
	rows := make([][]expr.Value, 3000)
	for i := range rows {
		rows[i] = []expr.Value{xs[rng.Intn(len(xs))], ks[rng.Intn(len(ks))]}
	}
	// The first morsel holds no zero and the second starts with -0, so the
	// ±0 group's first row (and key, -0) is usually not the first zero the
	// caller's own worker sees.
	for _, r := range rows[:morsel] {
		if r[0].K == expr.KindFloat && r[0].F == 0 {
			r[0] = expr.Float(1)
		}
	}
	rows[morsel][0] = expr.Float(negZero)
	if _, err := z.AppendRows(rows); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		q    string
		keys []int // key columns of z, in GROUP BY order
	}{
		{"SELECT x, count(*), count(k) FROM z GROUP BY x", []int{0}},
		{"SELECT k, count(*), count(k) FROM z GROUP BY k", []int{1}},
		{"SELECT x, k, count(*), count(k) FROM z GROUP BY x, k", []int{0, 1}},
		{"SELECT k, x, count(*), count(k) FROM z GROUP BY k, x", []int{1, 0}},
	} {
		want := groupOracle(t, rows, tc.keys)
		for _, strategy := range randdiffStrategies() {
			stmt, err := sql.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			op, err := buildStrategy(cat, stmt.(*sql.SelectStmt), strategy)
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.q, strategyName(strategy), err)
			}
			got, err := Drain(op)
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.q, strategyName(strategy), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s (%s): %d groups, want %d", tc.q, strategyName(strategy), len(got), len(want))
			}
			for r := range want {
				for c := range want[r] {
					if !sameValue(got[r][c], want[r][c]) {
						t.Fatalf("%s (%s) row %d: %v, want %v", tc.q, strategyName(strategy), r, got[r], want[r])
					}
				}
			}
		}
	}

	// Every strategy matched the oracle, so pinning the oracle's float groups
	// pins the engines': one ±0 group keyed -0 and one NaN group.
	zeros, nans := 0, 0
	for _, r := range rows {
		if r[0].K == expr.KindFloat && r[0].F == 0 {
			zeros++
		}
		if r[0].K == expr.KindFloat && math.IsNaN(r[0].F) {
			nans++
		}
	}
	for _, g := range groupOracle(t, rows, []int{0}) {
		switch key := g[0].String(); key {
		case "-0":
			if g[1].I != int64(zeros) {
				t.Errorf("±0 group counts %d, want %d", g[1].I, zeros)
			}
		case "NaN":
			if g[1].I != int64(nans) {
				t.Errorf("NaN group counts %d, want %d", g[1].I, nans)
			}
		case "0":
			t.Errorf("a second zero group, keyed %s", key)
		}
	}
}

// groupOracle groups rows on the given key columns by expr.Compare, in
// first-seen order, and returns each group's key (its first row's values),
// count(*) and count of non-NULL k (column 1).
func groupOracle(t *testing.T, rows [][]expr.Value, keys []int) []Row {
	t.Helper()
	same := func(a, b expr.Value) bool {
		if a.IsNull() || b.IsNull() {
			return a.IsNull() && b.IsNull()
		}
		c, err := expr.Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c == 0
	}
	var out []Row
	for _, r := range rows {
		var grp Row
		for _, g := range out {
			match := true
			for j, c := range keys {
				match = match && same(g[j], r[c])
			}
			if match {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = make(Row, len(keys)+2)
			for j, c := range keys {
				grp[j] = r[c]
			}
			grp[len(keys)], grp[len(keys)+1] = expr.Int(0), expr.Int(0)
			out = append(out, grp)
		}
		grp[len(keys)].I++
		if !r[1].IsNull() {
			grp[len(keys)+1].I++
		}
	}
	if len(out) == 0 {
		t.Fatalf("oracle found no groups over %d rows", len(rows))
	}
	return out
}

// TestMinMaxSignedZeroTies pins the MIN/MAX tie rule: −0 and 0 compare
// equal, and MIN returns −0 while MAX returns 0 whichever order they arrive
// in — within one morsel, or in different morsels that different workers
// fold and the merge recombines — in the row reference and at 1, 2 and 4
// workers. The sign bit is checked every time.
func TestMinMaxSignedZeroTies(t *testing.T) {
	const morsel = 64
	withSmallMorsels(t, morsel)
	negZero := math.Copysign(0, -1)
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "g", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := table.NewCatalog()
	// Eight morsels each: whole morsels of one zero alternating, starting
	// with either, and both zeros alternating row by row.
	layouts := map[string]func(i int) float64{
		"negfirst": func(i int) float64 { return []float64{negZero, 0}[i/morsel%2] },
		"posfirst": func(i int) float64 { return []float64{0, negZero}[i/morsel%2] },
		"rowwise":  func(i int) float64 { return []float64{0, negZero}[i%2] },
	}
	for name, x := range layouts {
		tb, err := cat.Create(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]expr.Value, 8*morsel)
		for i := range rows {
			rows[i] = []expr.Value{expr.Float(x(i)), expr.Int(int64(i % 3))}
		}
		if _, err := tb.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	// Whether a pool of 2 or 4 folds both zeros into different partials
	// depends on the claims, so the merge is also checked directly.
	for _, kind := range []AggKind{AggMin, AggMax} {
		for _, pair := range [][2]float64{{negZero, 0}, {0, negZero}} {
			var a, b aggState
			if err := a.update(kind, expr.Float(pair[0])); err != nil {
				t.Fatal(err)
			}
			if err := b.update(kind, expr.Float(pair[1])); err != nil {
				t.Fatal(err)
			}
			if err := a.merge(&b, kind); err != nil {
				t.Fatal(err)
			}
			if got := a.final(kind); math.Signbit(got.F) != (kind == AggMin) {
				t.Fatalf("merge kind %d of %v then %v: %v (signbit %v)", kind, pair[0], pair[1], got, math.Signbit(got.F))
			}
		}
	}
	for name := range layouts {
		for _, q := range []string{
			"SELECT min(x), max(x) FROM " + name,
			"SELECT min(x), max(x), g FROM " + name + " GROUP BY g",
		} {
			for _, strategy := range []int{rowRef, 1, 2, 4} {
				rows, err := Drain(mustBuild(t, cat, q, strategy))
				if err != nil {
					t.Fatalf("%q (%s): %v", q, strategyName(strategy), err)
				}
				for _, r := range rows {
					lo, hi := r[0], r[1]
					if lo.K != expr.KindFloat || lo.F != 0 || !math.Signbit(lo.F) ||
						hi.K != expr.KindFloat || hi.F != 0 || math.Signbit(hi.F) {
						t.Fatalf("%q (%s): min %v (signbit %v), max %v (signbit %v); want -0 and 0",
							q, strategyName(strategy), lo, math.Signbit(lo.F), hi, math.Signbit(hi.F))
					}
				}
			}
		}
	}
}
