package table

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

func partSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		ColumnDef{Name: "k", Type: storage.TypeInt64},
		ColumnDef{Name: "x", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkParted(t *testing.T) *PartitionedTable {
	t.Helper()
	pt, err := NewPartitioned("t", partSchema(t), "k", []RangePartition{
		{Name: "p0", Upper: 10},
		{Name: "p1", Upper: 20},
		{Name: "p2", Max: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPartitionedValidation(t *testing.T) {
	s := partSchema(t)
	cases := []struct {
		name   string
		column string
		ranges []RangePartition
	}{
		{"missing column", "nope", []RangePartition{{Name: "p", Max: true}}},
		{"no partitions", "k", nil},
		{"empty name", "k", []RangePartition{{Name: "", Upper: 1}}},
		{"duplicate name", "k", []RangePartition{{Name: "p", Upper: 1}, {Name: "p", Upper: 2}}},
		{"non-increasing", "k", []RangePartition{{Name: "a", Upper: 5}, {Name: "b", Upper: 5}}},
		{"maxvalue not last", "k", []RangePartition{{Name: "a", Max: true}, {Name: "b", Upper: 5}}},
		{"double maxvalue", "k", []RangePartition{{Name: "a", Max: true}, {Name: "b", Max: true}}},
		{"nan bound", "k", []RangePartition{{Name: "a", Upper: math.NaN()}}},
	}
	for _, c := range cases {
		if _, err := NewPartitioned("t", s, c.column, c.ranges); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// Non-numeric partition column.
	ss, err := NewSchema(ColumnDef{Name: "s", Type: storage.TypeString})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartitioned("t", ss, "s", []RangePartition{{Name: "p", Max: true}}); err == nil {
		t.Error("string partition column: want error")
	}
}

func TestPartitionRouting(t *testing.T) {
	pt := mkParted(t)
	for _, c := range []struct {
		v    float64
		want int
	}{
		{-100, 0}, {0, 0}, {9.99, 0}, {10, 1}, {19, 1}, {20, 2}, {1e12, 2},
	} {
		got, err := pt.Route(c.v)
		if err != nil {
			t.Fatalf("Route(%g): %v", c.v, err)
		}
		if got != c.want {
			t.Errorf("Route(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	if _, err := pt.Route(math.NaN()); !errors.Is(err, ErrNoPartition) {
		t.Errorf("Route(NaN) err = %v, want ErrNoPartition", err)
	}

	// Without a MAXVALUE partition, out-of-range values are rejected.
	bounded, err := NewPartitioned("b", partSchema(t), "k", []RangePartition{{Name: "p0", Upper: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bounded.Route(10); !errors.Is(err, ErrNoPartition) {
		t.Errorf("Route(10) on bounded err = %v, want ErrNoPartition", err)
	}
}

func TestPartitionAppendRoutesAndRejects(t *testing.T) {
	pt := mkParted(t)
	rows := [][]expr.Value{
		{expr.Int(1), expr.Float(0.5)},
		{expr.Int(15), expr.Float(1.5)},
		{expr.Int(99), expr.Float(2.5)},
		{expr.Int(2), expr.Float(3.5)},
	}
	n, err := pt.AppendRows(rows)
	if err != nil || n != 4 {
		t.Fatalf("AppendRows = %d, %v", n, err)
	}
	if got := pt.Part(0).NumRows(); got != 2 {
		t.Errorf("p0 rows = %d, want 2", got)
	}
	if got := pt.Part(1).NumRows(); got != 1 {
		t.Errorf("p1 rows = %d, want 1", got)
	}
	if got := pt.Part(2).NumRows(); got != 1 {
		t.Errorf("p2 rows = %d, want 1", got)
	}
	if got := pt.NumRows(); got != 4 {
		t.Errorf("NumRows = %d, want 4", got)
	}

	// A NULL partition key rejects the whole batch before anything lands.
	before := pt.NumRows()
	if _, err := pt.AppendRows([][]expr.Value{
		{expr.Int(3), expr.Float(1)},
		{expr.Null(), expr.Float(2)},
	}); err == nil {
		t.Fatal("NULL partition key: want error")
	}
	if pt.NumRows() != before {
		t.Errorf("rows appended despite routing error: %d -> %d", before, pt.NumRows())
	}
}

func TestPredBounds(t *testing.T) {
	parse := func(src string) expr.Expr {
		e, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return e
	}
	cases := []struct {
		src    string
		lo, hi Bound
	}{
		{"k = 5", Bound{F: 5, Set: true}, Bound{F: 5, Set: true}},
		{"k < 5", Bound{}, Bound{F: 5, Strict: true, Set: true}},
		{"k <= 5", Bound{}, Bound{F: 5, Set: true}},
		{"k > 5", Bound{F: 5, Strict: true, Set: true}, Bound{}},
		{"5 > k", Bound{}, Bound{F: 5, Strict: true, Set: true}},
		{"5 <= k", Bound{F: 5, Set: true}, Bound{}},
		{"k >= 2 AND k < 7", Bound{F: 2, Set: true}, Bound{F: 7, Strict: true, Set: true}},
		{"t.k >= 2 AND x < 3", Bound{F: 2, Set: true}, Bound{}},
		// OR and unanalyzable shapes contribute nothing.
		{"k = 5 OR k = 6", Bound{}, Bound{}},
		{"abs(k) < 5", Bound{}, Bound{}},
		{"k < x", Bound{}, Bound{}},
		// A conjunct on another table's column is ignored.
		{"o.k = 5", Bound{}, Bound{}},
	}
	for _, c := range cases {
		lo, hi := PredBounds(parse(c.src), "k", "t")
		if lo != c.lo || hi != c.hi {
			t.Errorf("PredBounds(%q) = %+v, %+v; want %+v, %+v", c.src, lo, hi, c.lo, c.hi)
		}
	}
}

func TestPruneExpr(t *testing.T) {
	pt := mkParted(t) // p0 [-inf,10) p1 [10,20) p2 [20,inf)
	parse := func(src string) expr.Expr {
		e, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return e
	}
	cases := []struct {
		src  string
		want []int
	}{
		{"k = 15", []int{1}},
		{"k = 10", []int{1}},
		{"k < 10", []int{0}},
		{"k <= 10", []int{0, 1}},
		{"k >= 20", []int{2}},
		{"k > 19 AND k < 21", []int{1, 2}},
		{"k >= 5 AND k < 15", []int{0, 1}},
		{"x > 3", []int{0, 1, 2}},
		{"k = 5 OR k = 25", []int{0, 1, 2}}, // OR: no pruning, conservative
	}
	for _, c := range cases {
		got := pt.PruneExpr(parse(c.src), "t")
		if len(got) != len(c.want) {
			t.Errorf("PruneExpr(%q) = %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PruneExpr(%q) = %v, want %v", c.src, got, c.want)
				break
			}
		}
	}
	// nil predicate keeps everything.
	if got := pt.PruneExpr(nil, "t"); len(got) != 3 {
		t.Errorf("PruneExpr(nil) = %v, want all 3", got)
	}
}

// TestPruneHugeIntBoundsConservative: BIGINT filters compare exact int64
// while routing goes through float64, so beyond 2^53 a strict bound from
// `k < L` must demote to inclusive — otherwise a row with k < L whose key
// rounds up onto the partition boundary would be pruned away.
func TestPruneHugeIntBoundsConservative(t *testing.T) {
	const boundary = float64(1 << 53)
	pt, err := NewPartitioned("t", partSchema(t), "k", []RangePartition{
		{Name: "lo", Upper: boundary},
		{Name: "hi", Max: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// k = 2^53 - 1 < 2^53 exactly as ints, but float64(2^53-1+...) — a row
	// key like 2^53+1 would round onto the boundary. The predicate
	// k < 9007199254740993 (2^53+1, inexact in float64) must keep BOTH
	// partitions: its float image is exactly the boundary.
	pred := &expr.Binary{Op: expr.OpLt,
		L: &expr.Ident{Name: "k"},
		R: &expr.Lit{Val: expr.Int(1<<53 + 1)},
	}
	if got := pt.PruneExpr(pred, "t"); len(got) != 2 {
		t.Fatalf("huge-int strict bound pruned a reachable partition: %v", got)
	}
	// Small ints keep sharp pruning: k < 2^53 at a small boundary…
	small, err := NewPartitioned("s", partSchema(t), "k", []RangePartition{
		{Name: "lo", Upper: 10},
		{Name: "hi", Max: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharp := &expr.Binary{Op: expr.OpLt,
		L: &expr.Ident{Name: "k"},
		R: &expr.Lit{Val: expr.Int(10)},
	}
	if got := small.PruneExpr(sharp, "s"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("small-int strict bound lost sharpness: %v", got)
	}
}

func TestCatalogPartitioned(t *testing.T) {
	c := NewCatalog()
	e0 := c.Epoch()
	d := Decl{Name: "t", Cols: partSchema(t).Cols, PartCol: "k", Parts: []RangePartition{
		{Name: "p0", Upper: 10}, {Name: "p1", Max: true},
	}}
	if err := c.Declare(d); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() == e0 {
		t.Error("Declare did not bump the epoch")
	}
	if _, ok := c.GetPartitioned("t"); !ok {
		t.Fatal("GetPartitioned(t) not found")
	}
	if _, ok := c.Get(PartitionTableName("t", "p0")); !ok {
		t.Fatal("child table not registered")
	}
	if _, err := c.Lookup("t"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("Lookup(parent) err = %v, want ErrPartitioned", err)
	}
	// Name collisions in both directions.
	if _, err := c.Create("t", partSchema(t)); err == nil {
		t.Error("Create over partitioned name: want error")
	}
	if err := c.Declare(d); err == nil {
		t.Error("duplicate Declare: want error")
	}
	// Children cannot be dropped out from under the parent.
	if c.Drop(PartitionTableName("t", "p0")) {
		t.Error("Drop(child) succeeded")
	}
	// Dropping the parent cascades.
	e1 := c.Epoch()
	if !c.Drop("t") {
		t.Fatal("Drop(t) failed")
	}
	if c.Epoch() == e1 {
		t.Error("Drop did not bump the epoch")
	}
	if _, ok := c.Get(PartitionTableName("t", "p0")); ok {
		t.Error("child survived parent drop")
	}
	if _, ok := c.GetPartitioned("t"); ok {
		t.Error("parent survived drop")
	}
}

// TestDeclRoundTrip: DeclOf returns what Declare was given — for a plain
// table, a partitioned parent and (as the parent's) a partition child —
// and a declaration's JSON form is the partitions.json entry, columns left
// to the .dltab files.
func TestDeclRoundTrip(t *testing.T) {
	c := NewCatalog()
	parted := Decl{Name: "t", Cols: partSchema(t).Cols, PartCol: "k", Parts: []RangePartition{
		{Name: "p0", Upper: 10}, {Name: "p1", Max: true},
	}}
	plain := Decl{Name: "u", Cols: partSchema(t).Cols}
	for _, d := range []Decl{parted, plain} {
		if err := c.Declare(d); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]Decl{"t": parted, PartitionTableName("t", "p1"): parted, "u": plain} {
		got, ok := c.DeclOf(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("DeclOf(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	if _, ok := c.DeclOf("nosuch"); ok {
		t.Error("DeclOf(nosuch) found a declaration")
	}
	if err := c.Declare(Decl{Name: "bad", Cols: []ColumnDef{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("Declare accepted duplicate columns")
	}
	b, err := json.Marshal(parted)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"table":"t","column":"k","parts":[{"name":"p0","upper":10},{"name":"p1","max":true}]}`; string(b) != want {
		t.Fatalf("JSON form = %s, want %s", b, want)
	}
}

// TestPartitionedFromChecksRows: reassembly refuses a child that holds a
// partition-column value its range does not admit — in the tail or in a
// sealed chunk, a NULL or a NaN included — and accepts one whose values
// all route to it, also where an int64 zone map was widened past the
// range's bound (2^60 − 1 routes as 2^60).
func TestPartitionedFromChecksRows(t *testing.T) {
	old := DefaultChunkRows
	DefaultChunkRows = 2
	defer func() { DefaultChunkRows = old }()
	ranges := []RangePartition{{Name: "lo", Upper: 1 << 60}, {Name: "hi", Max: true}}
	child := func(name string, keys ...expr.Value) *Table {
		c := New(name, partSchema(t))
		for _, k := range keys {
			if _, err := c.AppendRows([][]expr.Value{{k, expr.Float(1)}}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	big := expr.Int(1<<60 - 1)
	for _, c := range []struct {
		name   string
		lo, hi []expr.Value
		ok     bool
	}{
		{"in range", []expr.Value{expr.Int(1), expr.Int(2), expr.Int(3)}, []expr.Value{expr.Int(1 << 61), big}, true},
		{"tail outside", []expr.Value{expr.Int(1), expr.Int(2), expr.Int(1 << 61)}, nil, false},
		{"sealed outside", []expr.Value{expr.Int(1 << 61), expr.Int(2), expr.Int(3)}, nil, false},
		{"rounds into the next range", []expr.Value{big, expr.Int(2)}, nil, false},
		{"NULL", []expr.Value{expr.Int(1), expr.Null()}, nil, false},
	} {
		_, err := NewPartitionedFrom("t", partSchema(t), "k", ranges, []*Table{child("t#lo", c.lo...), child("t#hi", c.hi...)})
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
	fs, err := NewSchema(ColumnDef{Name: "k", Type: storage.TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	nan := New("f#all", fs)
	if _, err := nan.AppendRows([][]expr.Value{{expr.Float(math.NaN())}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartitionedFrom("f", fs, "k", []RangePartition{{Name: "all", Max: true}}, []*Table{nan}); err == nil {
		t.Error("NaN partition key: want error")
	}
}
