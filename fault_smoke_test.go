package datalaws

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"datalaws/internal/expr"
	"datalaws/internal/wal"
)

// TestRandomizedKillPointSmoke crashes a concurrently-loaded engine at 30
// randomized injection points and checks the two properties group commit
// promises: every acked batch survives the crash whole, and no batch
// survives partially — a batch is one WAL record, and a record is applied
// all-or-nothing.
func TestRandomizedKillPointSmoke(t *testing.T) {
	const (
		iterations = 30
		appenders  = 4
		batches    = 8 // per appender
		batchRows  = 5
	)
	policies := []wal.CrashPolicy{wal.CrashDrop, wal.CrashKeep, wal.CrashTear, wal.CrashZero}

	for iter := 0; iter < iterations; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%02d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(iter)))
			mem := wal.NewMemFS()
			ffs := wal.NewFaultFS(mem)
			// Arm a random kill point. The clean run issues ~1 write per
			// batch plus 1 sync per commit group; aim inside that range so
			// most iterations actually die mid-stream, but let some run to
			// completion (the full-durability case is worth hitting too).
			total := appenders*batches + 2
			if iter%2 == 0 {
				ffs.FailWriteAt(1+rng.Intn(total), rng.Intn(2) == 0)
			} else {
				ffs.FailSyncAt(1 + rng.Intn(total/2+1))
			}

			e, err := Open("walmem-smoke", wal.Config{
				FS:        ffs,
				BatchSize: 8,
				MaxWait:   100 * time.Microsecond,
			})
			if err != nil {
				if !errors.Is(err, wal.ErrInjected) {
					t.Fatal(err)
				}
				return // died before the log existed; nothing to check
			}
			createOK := false
			if _, err := e.Exec(`CREATE TABLE t (g BIGINT, b BIGINT, i BIGINT)`); err == nil {
				createOK = true
			} else if !errors.Is(err, wal.ErrInjected) && !errors.Is(err, wal.ErrClosed) {
				t.Fatal(err)
			}

			// Concurrent appenders; remember exactly which batches acked.
			var mu sync.Mutex
			acked := map[[2]int64]bool{}
			var wg sync.WaitGroup
			if createOK {
				for g := 0; g < appenders; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						for b := 0; b < batches; b++ {
							rows := make([][]expr.Value, batchRows)
							for i := range rows {
								rows[i] = []expr.Value{
									expr.Int(int64(g)), expr.Int(int64(b)), expr.Int(int64(i)),
								}
							}
							if _, err := e.Append("t", rows); err != nil {
								return // poisoned log: no later batch can ack
							}
							mu.Lock()
							acked[[2]int64{int64(g), int64(b)}] = true
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
			}

			// Crash under a random policy and recover.
			img := mem.Crash(policies[rng.Intn(len(policies))])
			e.Close()
			e2, err := Open("walmem-smoke", wal.Config{FS: img})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer e2.Close()

			tb, ok := e2.Catalog.Get("t")
			if !ok {
				if len(acked) > 0 {
					t.Fatalf("table lost but %d batches were acked", len(acked))
				}
				return
			}
			counts := map[[2]int64]int{}
			v := tb.Chunks()
			rows, err := v.Head(v.Rows())
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				counts[[2]int64{row[0].I, row[1].I}]++
			}
			for key, n := range counts {
				if n != batchRows {
					t.Errorf("batch g=%d b=%d recovered %d/%d rows: torn batch", key[0], key[1], n, batchRows)
				}
			}
			for key := range acked {
				if counts[key] != batchRows {
					t.Errorf("acked batch g=%d b=%d lost (%d/%d rows)", key[0], key[1], counts[key], batchRows)
				}
			}
		})
	}
}
