package exec

import (
	"strings"
	"testing"

	"datalaws/internal/expr"
)

func TestConcatOrdersChildren(t *testing.T) {
	a := &ValuesScan{Cols: []string{"v"}, Rows: []Row{{expr.Int(1)}, {expr.Int(2)}}}
	b := &ValuesScan{Cols: []string{"v"}, Rows: []Row{{expr.Int(3)}}}
	c := &Concat{Children: []Node{a, b}}
	rows, err := Drain(rowReference(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].I != 1 || rows[2][0].I != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestConcatEmptyChildren(t *testing.T) {
	empty := &ValuesScan{Cols: []string{"v"}}
	full := &ValuesScan{Cols: []string{"v"}, Rows: []Row{{expr.Int(7)}}}
	rows, err := Drain(rowReference(&Concat{Children: []Node{empty, full, empty}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestConcatColumnMismatch(t *testing.T) {
	a := &ValuesScan{Cols: []string{"v"}}
	b := &ValuesScan{Cols: []string{"w"}}
	if err := rowReference(&Concat{Children: []Node{a, b}}).Open(); err == nil {
		t.Fatal("want column mismatch error")
	}
	c := &ValuesScan{Cols: []string{"v", "w"}}
	if err := rowReference(&Concat{Children: []Node{a, c}}).Open(); err == nil {
		t.Fatal("want arity mismatch error")
	}
	if err := rowReference(&Concat{}).Open(); err == nil {
		t.Fatal("want empty concat error")
	}
}

func TestPlanStringRendersAllOperators(t *testing.T) {
	scan := &ValuesScan{Cols: []string{"a", "b"}, Rows: nil}
	pred, _ := parseTestExpr(t, "a > 1")
	plan := &Limit{N: 5, Child: &Sort{
		Keys: []SortKey{{Col: 0}},
		Child: &Project{
			Names: []string{"a"},
			Exprs: []expr.Expr{&expr.Ident{Name: "a"}},
			Child: &Filter{Pred: pred, Child: scan},
		},
	}}
	op, err := Lower(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := PlanString(op)
	for _, want := range []string{"Vectorized", "Gather workers=1", "VecSort keys=1 limit=5", "VecProject a", "VecFilter", "VecValuesScan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}
	// Indentation deepens down the tree.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	for i := 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], strings.Repeat("  ", i)) {
			t.Fatalf("line %d not indented:\n%s", i, out)
		}
	}
}

func parseTestExpr(t *testing.T, src string) (expr.Expr, error) {
	t.Helper()
	e, err := expr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return e, nil
}
