package exec

import (
	"strings"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// chunked64Fixture builds a table "big" with exactly 64 sealed chunks of 64
// rows: id ascending (so zone maps slice the key space cleanly), x a noisy
// measurement.
func chunked64Fixture(t *testing.T) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Create("big", schema)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 64 * 64
	batch := make([][]expr.Value, rows)
	for i := range batch {
		batch[i] = []expr.Value{expr.Int(int64(i)), expr.Float(float64(i%97) * 0.25)}
	}
	if n, err := tb.AppendRows(batch); err != nil || n != rows {
		t.Fatalf("append: %d, %v", n, err)
	}
	if got := tb.Chunks().NumSealed(); got != 64 {
		t.Fatalf("fixture has %d sealed chunks, want 64", got)
	}
	return cat
}

// TestSelectiveScanDecodesFewChunks is the tentpole acceptance criterion: a
// selective query over a 64-chunk table decodes at most 25% of the chunks
// (zone maps prune the rest before any decode), across all three execution
// strategies, and EXPLAIN surfaces the pruning.
func TestSelectiveScanDecodesFewChunks(t *testing.T) {
	withSmallMorsels(t, 64)
	cat := chunked64Fixture(t)
	// ids 3900..4000 span chunks 60..62 (3 of 64).
	const q = "SELECT count(*), sum(x) FROM big WHERE id >= 3900 AND id < 4000"

	var base []Row
	run := func(label string, build func() (Operator, error)) {
		t.Helper()
		table.SetChunkCacheBudget(0) // every decode shows up as a miss
		defer table.SetChunkCacheBudget(table.DefaultChunkCacheBytes)
		table.ResetCacheStats()
		op, err := build()
		if err != nil {
			t.Fatalf("%s: plan: %v", label, err)
		}
		rows, err := Drain(op)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		st := table.CacheStats()
		if st.Misses > 64/4 {
			t.Fatalf("%s: decoded %d of 64 chunks, want ≤ 16", label, st.Misses)
		}
		if st.Misses < 3 {
			t.Fatalf("%s: decoded only %d chunks — the matching rows span 3", label, st.Misses)
		}
		if base == nil {
			base = rows
			return
		}
		if len(rows) != len(base) {
			t.Fatalf("%s: %d rows vs %d", label, len(rows), len(base))
		}
		for r := range base {
			for c := range base[r] {
				if !sameValue(rows[r][c], base[r][c]) {
					t.Fatalf("%s: row %d col %d: %v vs %v", label, r, c, rows[r][c], base[r][c])
				}
			}
		}
	}
	run("row", func() (Operator, error) { return rowPlan(t, cat, q) })
	run("batch", func() (Operator, error) { return buildParallel(t, cat, q, 1) })
	run("parallel", func() (Operator, error) { return buildParallel(t, cat, q, 4) })

	// The count pins correctness independent of the baseline: exactly 100
	// ids land in [3900, 4000).
	if got := base[0][0]; !sameValue(got, expr.Int(100)) {
		t.Fatalf("count = %v, want 100", got)
	}

	// EXPLAIN renders the pruning.
	parOp, err := buildParallel(t, cat, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan := PlanString(parOp); !strings.Contains(plan, "chunks: 61/64 pruned") {
		t.Fatalf("parallel plan missing chunk pruning:\n%s", plan)
	}
}

// TestScanLargerThanCacheBudget: with the decoded-chunk cache squeezed to a
// quarter of the table's decoded footprint, a full scan still returns
// exactly the right answer — chunks stream through the cache instead of
// residing in memory.
func TestScanLargerThanCacheBudget(t *testing.T) {
	withSmallMorsels(t, 64)
	cat := chunked64Fixture(t)
	tb, _ := cat.Get("big")
	table.SetChunkCacheBudget(int64(tb.RawSizeBytes() / 4))
	defer table.SetChunkCacheBudget(table.DefaultChunkCacheBytes)
	table.ResetCacheStats()

	const q = "SELECT count(*), sum(id) FROM big"
	for _, workers := range []int{1, 4} {
		op, err := buildParallel(t, cat, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		const n = 64 * 64
		if !sameValue(rows[0][0], expr.Int(n)) || !sameValue(rows[0][1], expr.Float(n*(n-1)/2)) {
			t.Fatalf("workers=%d: got %v", workers, rows[0])
		}
	}
	if st := table.CacheStats(); st.Used > st.Budget {
		t.Fatalf("cache over budget: %+v", st)
	}
}

// TestPartitionScanPrunesChunks: chunk pruning composes with partition
// pruning — surviving partitions still skip their non-matching chunks.
func TestPartitionScanPrunesChunks(t *testing.T) {
	withSmallMorsels(t, 64)
	cat := table.NewCatalog()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "k", Type: storage.TypeInt64},
		table.ColumnDef{Name: "id", Type: storage.TypeInt64},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Declare(table.Decl{Name: "pt", Cols: schema.Cols, PartCol: "k", Parts: []table.RangePartition{
		{Name: "lo", Upper: 1000},
		{Name: "hi", Max: true},
	}}); err != nil {
		t.Fatal(err)
	}
	pt, _ := cat.GetPartitioned("pt")
	const rows = 2000
	batch := make([][]expr.Value, rows)
	for i := range batch {
		batch[i] = []expr.Value{expr.Int(int64(i)), expr.Int(int64(i))}
	}
	if _, err := pt.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	// id >= 1900 lives in partition "hi" (k >= 1000), and within it in the
	// top chunks only.
	table.SetChunkCacheBudget(0)
	defer table.SetChunkCacheBudget(table.DefaultChunkCacheBytes)
	table.ResetCacheStats()
	op, err := buildParallel(t, cat, "SELECT count(*) FROM pt WHERE k >= 1000 AND id >= 1900", 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if !sameValue(res[0][0], expr.Int(100)) {
		t.Fatalf("count = %v, want 100", res[0][0])
	}
	// Partition "hi" holds 1000 rows = 15 sealed chunks + tail; id >= 1900
	// survives in at most 3 of them. Partition "lo" is pruned wholesale.
	if st := table.CacheStats(); st.Misses > 4 {
		t.Fatalf("decoded %d chunks, want ≤ 4; pruning failed", st.Misses)
	}
}
