// Benchmarks for model-shipping replication: how fast a refit on the
// primary lands on a replica (the full publish → long-poll → install
// path), and what a replica charges for an APPROX point query over the
// wire. Run with
// go test -run='^$' -bench='ReplicaDeltaApply|ReplicaPointQuery' -benchmem .
package datalaws_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/server"
)

// benchPrimary boots a primary server over measurements-shaped table m
// with a fitted grouped model "law".
func benchPrimary(b *testing.B) (*server.Server, *datalaws.Engine) {
	b.Helper()
	eng := datalaws.NewEngine()
	eng.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	rng := rand.New(rand.NewSource(5))
	var rows [][]expr.Value
	for s := 0; s < 8; s++ {
		for i := 1; i <= 8; i++ {
			nu := 0.25 * float64(i)
			y := (2+float64(s))*nu + float64(s) + 0.05*rng.NormFloat64()
			rows = append(rows, []expr.Value{expr.Int(int64(s)), expr.Float(nu), expr.Float(y)})
		}
	}
	if _, err := eng.Append("m", rows); err != nil {
		b.Fatal(err)
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	srv := server.New(eng, &server.Config{Logf: b.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return srv, eng
}

// benchReplica attaches a synced replica to the primary.
func benchReplica(b *testing.B, addr string) (*datalaws.Engine, *server.Replicator) {
	b.Helper()
	reng, rep := server.OpenReplica(addr, &server.ReplicaConfig{PollWait: 5 * time.Millisecond})
	rep.Start()
	b.Cleanup(rep.Stop)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := reng.Models.Get("law"); ok {
			return reng, rep
		}
		if time.Now().After(deadline) {
			b.Fatal("replica never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkReplicaDeltaApply measures end-to-end delta propagation: one
// REFIT on the primary until the new version is installed and queryable on
// the replica (publish, long-poll wake, wire, install).
func BenchmarkReplicaDeltaApply(b *testing.B) {
	srv, peng := benchPrimary(b)
	reng, _ := benchReplica(b, srv.Addr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peng.MustExec("REFIT MODEL law")
		want := i + 2 // fit is v1; each refit bumps
		for {
			if m, ok := reng.Models.Get("law"); ok && m.Version >= want {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// BenchmarkReplicaPointQuery measures a prepared APPROX point lookup
// against a model-only replica through a real TCP session — the workload
// the replica exists to absorb.
func BenchmarkReplicaPointQuery(b *testing.B) {
	srv, _ := benchPrimary(b)
	reng, _ := benchReplica(b, srv.Addr())
	rsrv := server.New(reng, &server.Config{Logf: b.Logf})
	if err := rsrv.Serve("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = rsrv.Close() })
	cli, err := server.Dial(rsrv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cli.Close() })
	st, err := cli.Prepare("APPROX SELECT intensity FROM m WHERE source = ? AND nu = ? WITH ERROR")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query(int64(i%8), 0.25*float64(i%8+1))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		if n != 1 {
			b.Fatal(fmt.Errorf("point query returned %d rows", n))
		}
	}
}
