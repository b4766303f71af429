package datalaws

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datalaws/internal/expr"
)

// seedStressTable creates the stress table and loads n seed rows.
func seedStressTable(t *testing.T, eng *Engine, n int) {
	t.Helper()
	eng.MustExec(`CREATE TABLE s (grp BIGINT, x DOUBLE, y DOUBLE)`)
	rows := make([][]expr.Value, 0, 1024)
	for i := 0; i < n; i++ {
		rows = append(rows, stressRow(int64(i)))
		if len(rows) == cap(rows) {
			if _, err := eng.Append("s", rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		if _, err := eng.Append("s", rows); err != nil {
			t.Fatal(err)
		}
	}
}

func stressRow(i int64) []expr.Value {
	return []expr.Value{
		expr.Int(i % 32),
		expr.Float(float64(i%997) / 10),
		expr.Float(float64(i % 1009)),
	}
}

// TestParallelStressIngestAndQuery runs batched Append and streaming
// CopyFrom concurrently with parallel scans and group-by aggregations on
// one engine. Run under -race in CI, it guards the snapshot/bitmap
// handoff between morsel workers and the single writer: every query must
// see a consistent prefix of the table (counts never go backwards, sums
// stay finite, group keys stay in range).
func TestParallelStressIngestAndQuery(t *testing.T) {
	eng := NewEngine()
	eng.SetParallelism(4)
	const seed = 20000
	seedStressTable(t, eng, seed)

	// Writers are bounded (bursts × batch) so the table cannot outgrow the
	// readers on slow or single-core machines; stop short-circuits them
	// once the readers exhaust their query budget.
	const bursts = 40
	var stop atomic.Bool
	var appended atomic.Int64
	var writers, readers sync.WaitGroup

	// Writer 1: batched appends.
	writers.Add(1)
	go func() {
		defer writers.Done()
		i := int64(seed)
		for b := 0; b < bursts && !stop.Load(); b++ {
			batch := make([][]expr.Value, 256)
			for j := range batch {
				batch[j] = stressRow(i)
				i++
			}
			if _, err := eng.Append("s", batch); err != nil {
				t.Error(err)
				return
			}
			appended.Add(int64(len(batch)))
		}
	}()
	// Writer 2: streaming CopyFrom in bursts.
	writers.Add(1)
	go func() {
		defer writers.Done()
		i := int64(1 << 20)
		for b := 0; b < bursts && !stop.Load(); b++ {
			sent := 0
			n, err := eng.CopyFrom("s", func() ([]expr.Value, error) {
				if sent >= 512 {
					return nil, nil // end of this burst
				}
				sent++
				i++
				return stressRow(i), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			appended.Add(int64(n))
		}
	}()

	// Knob flipper: SetParallelism must be safe against in-flight queries.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for n := 0; !stop.Load(); n++ {
			eng.SetParallelism(1 + n%4)
		}
	}()

	// Readers: parallel scans and aggregations racing the writers.
	queries := []string{
		`SELECT count(*) FROM s`,
		`SELECT grp, count(*), sum(x), avg(y), min(x), max(y) FROM s GROUP BY grp`,
		`SELECT x + y FROM s WHERE x > 50 LIMIT 500`,
		`SELECT grp, count(*) FROM s GROUP BY grp HAVING count(*) > 10 ORDER BY grp`,
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			lastCount := int64(0)
			for i := 0; i < 25; i++ {
				q := queries[rng.Intn(len(queries))]
				rows, err := eng.Query(context.Background(), q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				for rows.Next() {
					row := rows.Row()
					if strings.HasPrefix(q, "SELECT count(*)") {
						if row[0].I < int64(seed) || row[0].I < lastCount {
							t.Errorf("count went backwards: %d after %d", row[0].I, lastCount)
						}
						lastCount = row[0].I
					}
					if strings.HasPrefix(q, "SELECT grp, count(*), sum") {
						if row[0].K == expr.KindInt && (row[0].I < 0 || row[0].I >= 32) {
							t.Errorf("group key out of range: %v", row[0])
						}
					}
				}
				if err := rows.Err(); err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				rows.Close()
			}
		}(r)
	}

	// Let the readers finish their query budget, then stop the writers.
	readers.Wait()
	stop.Store(true)
	writers.Wait()

	// Final consistency: the full count equals everything we appended.
	res, err := eng.Exec(`SELECT count(*) FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(seed) + appended.Load()
	if got := res.Rows[0][0].I; got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
}

// TestEngineParallelismKnob checks the engine-level wiring: results match
// across parallelism levels, EXPLAIN reflects the parallel plan, and the
// knob covers approximate options and fitting.
func TestEngineParallelismKnob(t *testing.T) {
	eng := NewEngine()
	seedStressTable(t, eng, 40000) // > one morsel at the default size

	run := func(q string) [][]string {
		res, err := eng.Exec(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			for _, v := range r {
				out[i] = append(out[i], v.String())
			}
		}
		return out
	}

	q := `SELECT grp, count(*), min(x), max(y) FROM s GROUP BY grp ORDER BY grp`
	eng.SetParallelism(1)
	serial := run(q)
	eng.SetParallelism(4)
	parallel := run(q)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if fmt.Sprint(serial[i]) != fmt.Sprint(parallel[i]) {
			t.Fatalf("row %d: serial %v vs parallel %v", i, serial[i], parallel[i])
		}
	}

	if eng.AQP.Parallelism != 4 || eng.Parallelism != 4 {
		t.Fatalf("SetParallelism did not reach every knob: %d / %d", eng.Parallelism, eng.AQP.Parallelism)
	}

	res, err := eng.Exec(`EXPLAIN SELECT grp, sum(x) FROM s GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Info, "VecHashAggregate group=[grp] aggs=1 workers=4 (partial+merge)") {
		t.Fatalf("EXPLAIN does not show the aggregate's worker budget:\n%s", res.Info)
	}
	res, err = eng.Exec(`EXPLAIN SELECT x FROM s WHERE x > 1`)
	if err != nil {
		t.Fatal(err)
	}
	// EXPLAIN shows the budget; the pool itself is sized at open (40000
	// rows = 3 morsels here).
	if !strings.Contains(res.Info, "Gather workers=4") {
		t.Fatalf("EXPLAIN does not show the gather:\n%s", res.Info)
	}
}
