package exec

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

// framesFixture builds t(a BIGINT, g BIGINT, v DOUBLE) as 8 sealed chunks
// of 64 rows (a ascending, g in 0..9) and dim(g BIGINT, w BIGINT) as 2
// chunks of 64 rows, with no unsealed tail, so every read is a frame
// decode the cache counts.
func framesFixture(t *testing.T) *table.Catalog {
	t.Helper()
	withSmallMorsels(t, 64)
	cat := table.NewCatalog()
	mk := func(name string, rows int, defs []table.ColumnDef, row func(i int) []expr.Value) {
		schema, err := table.NewSchema(defs...)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := cat.Create(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]expr.Value, rows)
		for i := range batch {
			batch[i] = row(i)
		}
		if _, err := tb.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	mk("t", 8*64, []table.ColumnDef{
		{Name: "a", Type: storage.TypeInt64},
		{Name: "g", Type: storage.TypeInt64},
		{Name: "v", Type: storage.TypeFloat64},
	}, func(i int) []expr.Value {
		return []expr.Value{expr.Int(int64(i)), expr.Int(int64(i % 10)), expr.Float(float64(i) * 0.5)}
	})
	mk("dim", 2*64, []table.ColumnDef{
		{Name: "g", Type: storage.TypeInt64},
		{Name: "w", Type: storage.TypeInt64},
	}, func(i int) []expr.Value {
		return []expr.Value{expr.Int(int64(i)), expr.Int(int64(i % 3))}
	})
	return cat
}

// TestScanDecodesOnlyReferencedFrames pins column-pruned chunk reads with
// exact frame counts, under a zero cache budget so every read decodes: a
// point query decodes the two frames it names in the one chunk the zone
// maps keep, count(*) decodes none, SELECT * decodes every frame, and a
// join decodes only its key columns. EXPLAIN names the columns read.
func TestScanDecodesOnlyReferencedFrames(t *testing.T) {
	cat := framesFixture(t)
	table.SetChunkCacheBudget(0)
	defer table.SetChunkCacheBudget(table.DefaultChunkCacheBytes)
	cases := []struct {
		q              string
		frames, misses uint64
		bytes          uint64 // decoded bytes: 8 per BIGINT or DOUBLE value
		want           expr.Value
		cols           string // the scan of t's EXPLAIN suffix
	}{
		{"SELECT v FROM t WHERE a = 100", 2, 1, 2 * 64 * 8, expr.Float(50), " cols: a,v"},
		{"SELECT count(*) FROM t", 0, 0, 0, expr.Int(8 * 64), " cols: none"},
		{"SELECT * FROM t", 3 * 8, 8, 3 * 8 * 64 * 8, expr.Int(0), ""},
		{"SELECT count(*) FROM t JOIN dim ON t.g = dim.g", 8 + 2, 8 + 2, (8 + 2) * 64 * 8, expr.Int(8 * 64), " cols: g"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			table.ResetCacheStats()
			op, err := buildParallel(t, cat, c.q, workers)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := Drain(op)
			if err != nil {
				t.Fatalf("%s: %v", c.q, err)
			}
			if !sameValue(rows[0][0], c.want) {
				t.Fatalf("%s: first value %v, want %v", c.q, rows[0][0], c.want)
			}
			st := table.CacheStats()
			if st.FrameDecodes != c.frames || st.Misses != c.misses || st.DecodedBytes != c.bytes || st.Hits != 0 {
				t.Errorf("%s (workers=%d): %d frames, %d misses, %d hits, %d bytes; want %d frames, %d misses, 0 hits, %d bytes",
					c.q, workers, st.FrameDecodes, st.Misses, st.Hits, st.DecodedBytes, c.frames, c.misses, c.bytes)
			}
			plan := PlanString(op)
			scan := plan[strings.Index(plan, "VecMorselScan t "):]
			scan = scan[:strings.IndexByte(scan, '\n')]
			if !strings.HasSuffix(scan, "pruned"+c.cols) {
				t.Errorf("%s: scan line %q, want the suffix %q", c.q, scan, c.cols)
			}
		}
	}
}

// TestPartialColumnCacheUnderAppends mixes cached and uncached frames of
// the same chunks while appends seal new ones. The budget holds four
// column frames, so a group-by that caches g and v leaves point queries
// that need a and v half served from the cache, and evicts under them.
// Two readers run such statements on two-worker pools beside a writer.
// Every row has g = a % 10 and v = a / 2, so whatever prefix a statement's
// view captured, its answer is checkable exactly. Run with -race.
func TestPartialColumnCacheUnderAppends(t *testing.T) {
	cat := framesFixture(t)
	table.SetChunkCacheBudget(4 * 64 * 8)
	defer table.SetChunkCacheBudget(table.DefaultChunkCacheBytes)
	tb, _ := cat.Get("t")

	const batches = 40
	done := make(chan struct{})
	errs := make(chan error, 3)
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			base := tb.NumRows()
			rows := make([][]expr.Value, 48)
			for i := range rows {
				a := int64(base + i)
				rows[i] = []expr.Value{expr.Int(a), expr.Int(a % 10), expr.Float(float64(a) * 0.5)}
			}
			if _, err := tb.AppendRows(rows); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		errs <- nil
	}()
	reader := func(seed int64) {
		for round := int64(0); ; round++ {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			op, err := buildParallel(t, cat, "SELECT g, count(*), sum(v) FROM t GROUP BY g ORDER BY g", 2)
			if err != nil {
				errs <- err
				return
			}
			groups, err := Drain(op)
			if err != nil {
				errs <- err
				return
			}
			var n int64
			for _, r := range groups {
				n += r[1].I
			}
			for _, r := range groups {
				g := r[0].I
				var cnt int64
				var sum float64
				for a := g; a < n; a += 10 {
					cnt++
					sum += float64(a) * 0.5
				}
				if r[1].I != cnt || r[2].F != sum {
					errs <- fmt.Errorf("group %d of a %d-row view: count %d sum %v, want %d %v", g, n, r[1].I, r[2].F, cnt, sum)
					return
				}
			}
			for k := int64(0); k < 8; k++ {
				a := (seed*7919 + round*104729 + k*613) % n
				op, err := buildParallel(t, cat, fmt.Sprintf("SELECT v FROM t WHERE a = %d", a), 2)
				if err != nil {
					errs <- err
					return
				}
				rows, err := Drain(op)
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != 1 || rows[0][0].F != float64(a)*0.5 {
					errs <- fmt.Errorf("point a = %d: %v", a, rows)
					return
				}
			}
		}
	}
	go reader(1)
	go reader(2)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := table.CacheStats(); st.Used > st.Budget || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("want a full cache that evicts and hits within budget: %+v", st)
	}
}
