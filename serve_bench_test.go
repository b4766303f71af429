// Benchmarks for the network server: the same engine operations as the
// in-process benchmarks, measured through a real TCP session — the hello,
// frame encoding and decoding, cursor flow control and all. The spread
// against the in-process numbers is the wire's price. Run with
// go test -run='^$' -bench='ServePointQuery|ServeScanCursor|ServeIngest' -benchmem .
package datalaws_test

import (
	"fmt"
	"testing"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/server"
)

// benchServer boots a server over an engine holding n sequential rows in
// big(a BIGINT, b DOUBLE), plus one connected client session.
func benchServer(b *testing.B, n int) (*server.Server, *server.Client) {
	b.Helper()
	eng := datalaws.NewEngine()
	eng.MustExec("CREATE TABLE big (a BIGINT, b DOUBLE)")
	tb, _ := eng.Catalog.Get("big")
	for i := 0; i < n; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(int64(i)), expr.Float(float64(i) * 0.5)}); err != nil {
			b.Fatal(err)
		}
	}
	srv := server.New(eng, &server.Config{Logf: b.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cli.Close() })
	return srv, cli
}

// BenchmarkServePointQuery measures a prepared point lookup per wire round
// trip — the paper's dominant client interaction (small question, small
// answer) with the session protocol on the path.
func BenchmarkServePointQuery(b *testing.B) {
	_, cli := benchServer(b, 10_000)
	st, err := cli.Prepare("SELECT b FROM big WHERE a = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query(int64(i % 10_000))
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		_ = rows.Close()
	}
}

// BenchmarkServeScanCursor streams a 100k-row result through the cursor
// protocol at several batch sizes: the flow-control knob's throughput
// curve (bigger batches amortize the per-fetch round trip). batch=default
// leaves the size to the server: 256 rows in the query's reply, doubling
// on each pull up to 16,384 rows or 1 MiB, twelve replies in all.
func BenchmarkServeScanCursor(b *testing.B) {
	const rows = 100_000
	for _, batch := range []int{0, 64, 256, 4096} {
		name := fmt.Sprintf("batch=%d", batch)
		if batch == 0 {
			name = "batch=default"
		}
		b.Run(name, func(b *testing.B) {
			_, cli := benchServer(b, rows)
			cli.FetchRows = batch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := cli.Query("SELECT a, b FROM big")
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for rs.Next() {
					n++
				}
				if err := rs.Err(); err != nil {
					b.Fatal(err)
				}
				if n != rows {
					b.Fatalf("streamed %d rows, want %d", n, rows)
				}
				_ = rs.Close()
			}
			b.SetBytes(int64(rows * 16)) // two 8-byte values per row
		})
	}
}

// BenchmarkServeIngest measures prepared single-row INSERTs through the
// wire — the live-ingestion client path.
func BenchmarkServeIngest(b *testing.B) {
	_, cli := benchServer(b, 0)
	ins, err := cli.Prepare("INSERT INTO big VALUES (?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ins.Query(int64(i), float64(i)*0.5)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		_ = rows.Close()
	}
}
