package exec

import (
	"fmt"
	"math"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// TestJoinKeyRule pins JOIN ON to the semantics of = in WHERE: a pair of
// rows joins exactly when expr.Compare calls their keys equal. Large INT
// keys that share a float64 (2^53 and 2^53+1) must not join each other, -0
// must join +0, NaN (appended in process: SQL has no NaN literal) joins NaN,
// an INT joins a DOUBLE at the DOUBLE's value, and NULL never joins. Each
// INT/DOUBLE side pairing is checked, row and vectorized, against a nested
// loop over Compare — in its order, which is the join's: left rows in scan
// order, each one's matches in build order.
func TestJoinKeyRule(t *testing.T) {
	withSmallMorsels(t, 4)
	const big = 1 << 53
	ints := []expr.Value{
		expr.Int(big + 1), expr.Int(big), expr.Int(big - 1), expr.Int(0), expr.Int(1),
		expr.Null(), expr.Int(-1), expr.Int(big + 1), expr.Int(math.MaxInt64), expr.Int(0),
	}
	floats := []expr.Value{
		expr.Float(0), expr.Float(math.Copysign(0, -1)), expr.Float(math.NaN()), expr.Float(big),
		expr.Float(1), expr.Null(), expr.Float(1.5), expr.Float(math.Inf(1)), expr.Float(-1),
		expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1)), expr.Float(1 << 63),
	}
	cat := table.NewCatalog()
	mk := func(name string, typ storage.ColType, keys []expr.Value) []Row {
		schema, err := table.NewSchema(
			table.ColumnDef{Name: "id", Type: storage.TypeInt64},
			table.ColumnDef{Name: "k", Type: typ},
		)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := cat.Create(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		var rows []Row
		for i, k := range keys {
			rows = append(rows, Row{expr.Int(int64(i)), k})
		}
		batch := make([][]expr.Value, len(rows))
		for i, r := range rows {
			batch[i] = r
		}
		if _, err := tb.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	sides := map[string][]Row{
		"li": mk("li", storage.TypeInt64, ints),
		"lf": mk("lf", storage.TypeFloat64, floats),
		"ri": mk("ri", storage.TypeInt64, ints),
		"rf": mk("rf", storage.TypeFloat64, floats),
	}
	for _, l := range []string{"li", "lf"} {
		for _, r := range []string{"ri", "rf"} {
			var want []string
			for _, lr := range sides[l] {
				for _, rr := range sides[r] {
					if lr[1].IsNull() || rr[1].IsNull() {
						continue
					}
					if c, err := expr.Compare(lr[1], rr[1]); err == nil && c == 0 {
						want = append(want, fmt.Sprintf("%d-%d", lr[0].I, rr[0].I))
					}
				}
			}
			for _, q := range []string{
				fmt.Sprintf("SELECT %[1]s.id, %[2]s.id FROM %[1]s JOIN %[2]s ON %[1]s.k = %[2]s.k", l, r),
				// The same equality in WHERE must not drop a joined row.
				fmt.Sprintf("SELECT %[1]s.id, %[2]s.id FROM %[1]s JOIN %[2]s ON %[1]s.k = %[2]s.k WHERE %[1]s.k = %[2]s.k", l, r),
			} {
				for _, strategy := range []int{rowRef, 1, 2} {
					rows, err := Drain(mustBuild(t, cat, q, strategy))
					if err != nil {
						t.Fatalf("%s %s: %v", q, strategyName(strategy), err)
					}
					got := make([]string, len(rows))
					for i, row := range rows {
						got[i] = fmt.Sprintf("%d-%d", row[0].I, row[1].I)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s %s:\n got  %v\n want %v", q, strategyName(strategy), got, want)
					}
				}
			}
		}
	}
}

func mustBuild(t *testing.T, cat *table.Catalog, q string, strategy int) Operator {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	op, err := buildStrategy(cat, st.(*sql.SelectStmt), strategy)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return op
}
