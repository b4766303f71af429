package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/wal"
	"datalaws/internal/wireerr"
)

// Replica tests: a model-only replica follows the primary's changefeed and
// answers APPROX queries whose intervals contain the primary's own
// fresh-model answers, while rejecting anything that needs raw rows.

// lawRows synthesizes intensity = (2+s)*nu + s + noise for sources
// 0..groups-1 over nu = 0.25..2.0.
func lawRows(groups int, noise float64, seed int64) [][]expr.Value {
	rng := rand.New(rand.NewSource(seed))
	var rows [][]expr.Value
	for s := 0; s < groups; s++ {
		for i := 1; i <= 8; i++ {
			nu := 0.25 * float64(i)
			y := (2+float64(s))*nu + float64(s) + noise*rng.NormFloat64()
			rows = append(rows, []expr.Value{expr.Int(int64(s)), expr.Float(nu), expr.Float(y)})
		}
	}
	return rows
}

// newPrimary boots a primary server over table m with a fitted grouped
// model "law".
func newPrimary(t *testing.T) (*Server, *datalaws.Engine) {
	t.Helper()
	eng := datalaws.NewEngine()
	eng.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	if _, err := eng.Append("m", lawRows(4, 0.05, 11)); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	srv := New(eng, &Config{Logf: t.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, eng
}

// newReplica attaches a replica to addr and serves it on its own port,
// returning the replica engine, its replicator, and a wire client against
// the replica's server.
func newReplica(t *testing.T, addr string) (*datalaws.Engine, *Replicator, *Client) {
	t.Helper()
	reng, rep := OpenReplica(addr, &ReplicaConfig{PollWait: 25 * time.Millisecond, Logf: t.Logf})
	rep.Start()
	t.Cleanup(rep.Stop)
	rsrv := New(reng, &Config{Logf: t.Logf})
	if err := rsrv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rsrv.Close() })
	return reng, rep, dialTest(t, rsrv)
}

// replicaHasModel waits for name to arrive (at minimum version v) over the
// feed.
func replicaHasModel(t *testing.T, reng *datalaws.Engine, name string, v int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("replica model %q v%d", name, v), func() bool {
		m, ok := reng.Models.Get(name)
		return ok && m.Version >= v
	})
}

// approxInterval runs one WITH ERROR point query over the wire and returns
// (value, lo, hi).
func approxInterval(t *testing.T, cli *Client, source int64, nu float64) (y, lo, hi float64) {
	t.Helper()
	rows, err := cli.Query(fmt.Sprintf(
		"APPROX SELECT intensity, intensity_lo, intensity_hi FROM m WHERE source = %d AND nu = %g WITH ERROR",
		source, nu))
	if err != nil {
		t.Fatalf("replica approx (%d, %g): %v", source, nu, err)
	}
	defer func() { _ = rows.Close() }()
	if !rows.Next() {
		t.Fatalf("replica approx (%d, %g): no row (err=%v)", source, nu, rows.Err())
	}
	if err := rows.Scan(&y, &lo, &hi); err != nil {
		t.Fatal(err)
	}
	return y, lo, hi
}

// primaryApprox returns the primary's fresh-model point prediction.
func primaryApprox(t *testing.T, eng *datalaws.Engine, source int64, nu float64) float64 {
	t.Helper()
	res := eng.MustExec(fmt.Sprintf(
		"APPROX SELECT intensity FROM m WHERE source = %d AND nu = %g", source, nu))
	if len(res.Rows) != 1 {
		t.Fatalf("primary approx (%d, %g): %d rows", source, nu, len(res.Rows))
	}
	return res.Rows[0][0].F
}

func TestReplicaServesModelAnswersWithoutRows(t *testing.T) {
	srv, peng := newPrimary(t)
	reng, _, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)

	// The replica holds zero rows, yet answers point queries with
	// intervals containing the primary's fresh prediction.
	if tb, ok := reng.Catalog.Get("m"); !ok || tb.NumRows() != 0 {
		t.Fatalf("replica stub table: ok=%v rows=%d, want empty stub", ok, tb.NumRows())
	}
	for s := int64(0); s < 4; s++ {
		want := primaryApprox(t, peng, s, 0.5)
		_, lo, hi := approxInterval(t, cli, s, 0.5)
		if want < lo || want > hi {
			t.Fatalf("source %d: primary %g outside replica interval [%g, %g]", s, want, lo, hi)
		}
	}

	// Aggregates ride the same model grid.
	rows, err := cli.Query("APPROX SELECT avg(intensity) FROM m WHERE source = 2 WITH ERROR")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("aggregate: no row (err=%v)", rows.Err())
	}
	var avg float64
	if err := rows.Scan(&avg); err != nil {
		t.Fatal(err)
	}
	_ = rows.Close()
	pres := peng.MustExec("APPROX SELECT avg(intensity) FROM m WHERE source = 2")
	if got, want := avg, pres.Rows[0][0].F; got != want {
		t.Fatalf("aggregate from identical model params: replica %g != primary %g", got, want)
	}
	if rows.Model == "" {
		t.Fatal("replica answer did not come from a model")
	}
}

func TestReplicaRejectsRowsAndWrites(t *testing.T) {
	srv, _ := newPrimary(t)
	reng, _, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)

	for _, stmt := range []string{
		"INSERT INTO m VALUES (9, 0.1, 0.2)",
		"SELECT count(*) FROM m",
		"CREATE TABLE scratch (x BIGINT)",
		"FIT MODEL law2 ON m AS 'intensity ~ a * nu' INPUTS (nu) START (a = 1)",
		"DROP MODEL law",
	} {
		_, err := cli.Exec(stmt)
		if err == nil {
			t.Fatalf("%q succeeded on a model-only replica", stmt)
		}
		if !errors.Is(err, wireerr.ErrReplicaReadOnly) {
			t.Fatalf("%q: error %v does not unwrap to ErrReplicaReadOnly", stmt, err)
		}
	}
}

func TestReplicaFollowsRefitAndDrop(t *testing.T) {
	srv, peng := newPrimary(t)
	reng, _, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)

	// Refit after more data: the replica picks up the new version and its
	// intervals track the refreshed parameters.
	if _, err := peng.Append("m", lawRows(4, 0.05, 12)); err != nil {
		t.Fatal(err)
	}
	peng.MustExec("REFIT MODEL law")
	replicaHasModel(t, reng, "law", 2)
	want := primaryApprox(t, peng, 1, 0.75)
	_, lo, hi := approxInterval(t, cli, 1, 0.75)
	if want < lo || want > hi {
		t.Fatalf("post-refit: primary %g outside replica interval [%g, %g]", want, lo, hi)
	}

	// Drop propagates; with FallbackExact forced off the replica then has
	// no way to answer.
	peng.MustExec("DROP MODEL law")
	waitFor(t, "model drop to replicate", func() bool {
		_, ok := reng.Models.Get("law")
		return !ok
	})
	if _, err := cli.Exec("APPROX SELECT intensity FROM m WHERE source = 1 AND nu = 0.75"); err == nil {
		t.Fatal("APPROX query answered after its model was dropped")
	} else if !errors.Is(err, modelstore.ErrNoModel) {
		t.Fatalf("want ErrNoModel after drop, got %v", err)
	}
}

// TestReplicaDifferentialContainment is the consistency harness: across the
// whole fitted grid, every replica interval contains the primary's
// fresh-model answer — first in steady state, then through a staleness
// window where the primary has ingested and refitted but the replica is
// frozen on the old model with only its growth-widened bounds.
func TestReplicaDifferentialContainment(t *testing.T) {
	srv, peng := newPrimary(t)
	reng, rep, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)

	sweep := func(phase string) {
		t.Helper()
		for s := int64(0); s < 4; s++ {
			for i := 1; i <= 8; i++ {
				nu := 0.25 * float64(i)
				want := primaryApprox(t, peng, s, nu)
				_, lo, hi := approxInterval(t, cli, s, nu)
				if want < lo || want > hi {
					t.Fatalf("%s (%d, %g): primary %g outside replica [%g, %g]",
						phase, s, nu, want, lo, hi)
				}
			}
		}
	}
	sweep("steady state")

	// Staleness window: the primary ingests a slightly drifted batch; the
	// replica learns the growth fraction (its inflation floor rises) and
	// is then frozen — exactly the state of a replica mid-refit. After the
	// primary refits, the frozen replica's widened stale intervals must
	// still contain the primary's fresh answers.
	rng := rand.New(rand.NewSource(13))
	var drifted [][]expr.Value
	for s := 0; s < 4; s++ {
		for i := 1; i <= 8; i++ {
			nu := 0.25 * float64(i)
			y := (2+float64(s))*nu + float64(s) + 0.02 + 0.05*rng.NormFloat64()
			drifted = append(drifted, []expr.Value{expr.Int(int64(s)), expr.Float(nu), expr.Float(y)})
		}
	}
	if _, err := peng.Append("m", drifted); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "growth to reach replica", func() bool {
		return rep.InflationFor("law") > 1.0
	})
	rep.Stop()
	peng.MustExec("REFIT MODEL law")
	if m, _ := reng.Models.Get("law"); m.Version != 1 {
		t.Fatalf("replica refitted while frozen: version %d", m.Version)
	}
	sweep("staleness window")

	// The widening is visible in the answer metadata.
	rows, err := cli.Query("APPROX SELECT intensity FROM m WHERE source = 1 AND nu = 0.75 WITH ERROR")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	_ = rows.Close()
	if rows.SEInflation <= 1.0 {
		t.Fatalf("stale replica answered with SEInflation %g, want > 1", rows.SEInflation)
	}
}

func TestReplicaPartitionedFamily(t *testing.T) {
	eng := datalaws.NewEngine()
	eng.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE) PARTITION BY RANGE(source) (
		PARTITION p0 VALUES LESS THAN (2),
		PARTITION p1 VALUES LESS THAN (MAXVALUE))`)
	if _, err := eng.Append("m", lawRows(4, 0.05, 14)); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	srv := New(eng, &Config{Logf: t.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	reng, _, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law#p0", 1)
	replicaHasModel(t, reng, "law#p1", 1)
	if _, ok := reng.Catalog.GetPartitioned("m"); !ok {
		t.Fatal("replica did not rebuild the partitioned parent")
	}

	// One query per partition: routing and pruning work on the stub shape.
	for _, s := range []int64{0, 3} {
		want := primaryApprox(t, eng, s, 0.5)
		_, lo, hi := approxInterval(t, cli, s, 0.5)
		if want < lo || want > hi {
			t.Fatalf("partitioned source %d: primary %g outside replica [%g, %g]", s, want, lo, hi)
		}
	}
}

// TestPrimaryRestartResumesFeed reboots the primary from its data directory
// on the same address: the replica's old cursor belongs to a previous feed
// term, so it must resync — never alias — and keep serving the model.
func TestPrimaryRestartResumesFeed(t *testing.T) {
	dir := t.TempDir()
	eng, err := datalaws.Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	if _, err := eng.Append("m", lawRows(4, 0.05, 15)); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := New(eng, &Config{Logf: t.Logf})
	if err := srv.ServeListener(ln); err != nil {
		t.Fatal(err)
	}

	reng, rep, cli := newReplica(t, addr)
	replicaHasModel(t, reng, "law", 1)

	// Restart the primary on the same address from its durable state.
	_ = srv.Close()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := datalaws.Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ln2 net.Listener
	waitFor(t, "restart listener on "+addr, func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	srv2 := New(eng2, &Config{Logf: t.Logf})
	if err := srv2.ServeListener(ln2); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })

	// The replica redials, resyncs against the new term, and still serves.
	_, preResyncs := rep.Stats()
	waitFor(t, "replica resync after primary restart", func() bool {
		_, resyncs := rep.Stats()
		return resyncs > preResyncs && rep.Connected()
	})
	replicaHasModel(t, reng, "law", 1)
	want := primaryApprox(t, eng2, 2, 0.5)
	_, lo, hi := approxInterval(t, cli, 2, 0.5)
	if want < lo || want > hi {
		t.Fatalf("post-restart: primary %g outside replica [%g, %g]", want, lo, hi)
	}
}

// TestDrainUnblocksFeedLongPoll: a subscriber parked in a long poll must
// not hold graceful shutdown hostage.
func TestDrainUnblocksFeedLongPoll(t *testing.T) {
	srv, _ := newPrimary(t)
	cli := dialTest(t, srv)
	sub, err := cli.SubscribeModels()
	if err != nil {
		t.Fatal(err)
	}

	pollDone := make(chan error, 1)
	go func() {
		_, err := cli.PollDeltas(sub.Term, sub.Seq, 30*time.Second, 0)
		pollDone <- err
	}()
	// Let the poll park server-side before draining.
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(ctx) }()

	select {
	case err := <-pollDone:
		if err == nil {
			t.Fatal("long poll returned deltas during drain, want draining error")
		}
		if !errors.Is(err, wireerr.ErrDraining) && !strings.Contains(err.Error(), "receive") {
			t.Fatalf("long poll failed with %v, want draining or torn connection", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long poll still parked 3s into drain")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown did not complete cleanly: %v", err)
	}
}

// awaitPollAfter waits until a feed poll that started after this call has
// been applied: the poll in flight now completes first, then the next.
func awaitPollAfter(t *testing.T, rep *Replicator) {
	t.Helper()
	s0, _ := rep.Stats()
	waitFor(t, "a replica poll started after the append", func() bool {
		s, _ := rep.Stats()
		return s >= s0+2
	})
}

// sameAnswer runs q on the primary engine and over the replica's wire and
// requires identical rows.
func sameAnswer(t *testing.T, peng *datalaws.Engine, cli *Client, q string) {
	t.Helper()
	want := peng.MustExec(q).Rows
	rows, err := cli.Query(q)
	if err != nil {
		t.Fatalf("replica %s: %v", q, err)
	}
	defer func() { _ = rows.Close() }()
	var got [][]expr.Value
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if rows.Err() != nil {
		t.Fatalf("replica %s: %v", q, rows.Err())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: replica %v, primary %v", q, got, want)
	}
}

// TestReplicaFollowsAppendsWithoutRefit appends rows on the primary with no
// refit: the replica's legal set must follow within one poll, so that
// counts, group sums and point lookups on the new combinations match the
// primary's.
func TestReplicaFollowsAppendsWithoutRefit(t *testing.T) {
	srv, peng := newPrimary(t)
	reng, rep, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)
	for _, step := range []struct {
		what string
		row  []expr.Value
	}{
		// A new nu for a fitted source, then a new combination of a source
		// and a nu that both exist already.
		{"new value", []expr.Value{expr.Int(1), expr.Float(2.25), expr.Float(3*2.25 + 1)}},
		{"new combination", []expr.Value{expr.Int(2), expr.Float(2.25), expr.Float(4*2.25 + 2)}},
	} {
		if _, err := peng.Append("m", [][]expr.Value{step.row}); err != nil {
			t.Fatal(err)
		}
		awaitPollAfter(t, rep)
		if m, _ := reng.Models.Get("law"); m.Version != 1 {
			t.Fatalf("%s: replica model version %d, want no refit", step.what, m.Version)
		}
		sameAnswer(t, peng, cli, "APPROX SELECT count(*) FROM m")
		sameAnswer(t, peng, cli, "APPROX SELECT source, sum(intensity) FROM m GROUP BY source")
		sameAnswer(t, peng, cli, fmt.Sprintf("APPROX SELECT intensity FROM m WHERE source = %d AND nu = 2.25", step.row[0].I))
	}
	if res := peng.MustExec("APPROX SELECT count(*) FROM m WHERE nu = 2.25"); res.Rows[0][0].I != 2 {
		t.Fatalf("primary: %v combinations at nu = 2.25, want 2", res.Rows[0][0])
	}
}

// TestReplicaPointWidenedAsStatement: a replica widens WITH ERROR bounds by
// the primary's growth since the fit (growth only: LagInflate is 0). A
// strawman point over the wire took factor 1 there; it now answers the
// statement's interval.
func TestReplicaPointWidenedAsStatement(t *testing.T) {
	srv, peng := newPrimary(t)
	reng, rep, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)
	if _, err := peng.Append("m", lawRows(4, 0.05, 12)[:4]); err != nil {
		t.Fatal(err)
	}
	awaitPollAfter(t, rep)
	if f := rep.InflationFor("law"); f <= 1 {
		t.Fatalf("replica inflation %g after the primary grew, want > 1", f)
	}
	y, lo, hi := approxInterval(t, cli, 1, 0.5)
	ans, err := cli.ApproxPoint("law", 1, []float64{0.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != y || ans.Lo != lo || ans.Hi != hi {
		t.Fatalf("point %g [%g, %g], statement %g [%g, %g]", ans.Value, ans.Lo, ans.Hi, y, lo, hi)
	}
}

// TestReplicaStmtWidensWithLag: on a replica whose feed is down, a
// prepared WITH ERROR statement widens as the lag grows, as a strawman
// point does. Once the feed is cut and the replica's clock has moved ten
// seconds past the last sync, the statement's bounds equal
// Client.ApproxPoint's bit for bit, and its report carries the widening.
func TestReplicaStmtWidensWithLag(t *testing.T) {
	srv, _ := newPrimary(t)
	reng, rep := OpenReplica(srv.Addr(), &ReplicaConfig{PollWait: 25 * time.Millisecond, LagInflate: 0.5, Logf: t.Logf})
	rep.Start()
	t.Cleanup(rep.Stop)
	rsrv := New(reng, &Config{Logf: t.Logf})
	if err := rsrv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rsrv.Close() })
	cli := dialTest(t, rsrv)
	replicaHasModel(t, reng, "law", 1)
	st, err := cli.Prepare("APPROX SELECT intensity, intensity_lo, intensity_hi FROM m WHERE source = ? AND nu = ? WITH ERROR")
	if err != nil {
		t.Fatal(err)
	}
	point := func() (y, lo, hi, inflation float64) {
		t.Helper()
		rows, err := st.Query(int64(1), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = rows.Close() }()
		if !rows.Next() {
			t.Fatalf("no row: %v", rows.Err())
		}
		if err := rows.Scan(&y, &lo, &hi); err != nil {
			t.Fatal(err)
		}
		return y, lo, hi, rows.SEInflation
	}
	_, lo0, hi0, _ := point()
	rep.Stop() // the feed is cut
	rep.mu.Lock()
	last := rep.lastSync
	rep.now = func() time.Time { return last.Add(10 * time.Second) }
	rep.mu.Unlock()
	y, lo, hi, inflation := point()
	ans, err := cli.ApproxPoint("law", 1, []float64{0.5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != y || ans.Lo != lo || ans.Hi != hi {
		t.Fatalf("after 10s of lag: point %g [%g, %g], statement %g [%g, %g]", ans.Value, ans.Lo, ans.Hi, y, lo, hi)
	}
	if want := rep.InflationFor("law"); inflation != want || want < 6 {
		t.Fatalf("statement reports SEInflation %g, replica inflation %g; want them equal and at least 1 + 0.5·10", inflation, want)
	}
	if hi-lo <= hi0-lo0 {
		t.Fatalf("interval width %g after 10s of lag, %g before; want it wider", hi-lo, hi0-lo0)
	}
}

// TestReplicaStateReplacedOnTableRecreate drops the primary's table and
// re-creates it under the same name with other frequencies and more rows
// than before: the state the replica built from the old table's increments
// is replaced from row 0, not extended past the old row count.
func TestReplicaStateReplacedOnTableRecreate(t *testing.T) {
	srv, peng := newPrimary(t)
	reng, rep, cli := newReplica(t, srv.Addr())
	replicaHasModel(t, reng, "law", 1)
	peng.MustExec("DROP TABLE m")
	peng.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	var rows [][]expr.Value
	for rep := 0; rep < 4; rep++ {
		for s := 0; s < 3; s++ {
			for _, nu := range []float64{3, 4, 5} {
				rows = append(rows, []expr.Value{expr.Int(int64(s)), expr.Float(nu), expr.Float((2+float64(s))*nu + float64(s))})
			}
		}
	}
	if _, err := peng.Append("m", rows); err != nil {
		t.Fatal(err)
	}
	peng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	waitFor(t, "the re-captured model", func() bool {
		m, ok := reng.Models.Get("law")
		return ok && m.Spec.Table == "m" && m.Quality.GroupsOK == 3
	})
	awaitPollAfter(t, rep)
	sameAnswer(t, peng, cli, "APPROX SELECT count(*) FROM m")
	sameAnswer(t, peng, cli, "APPROX SELECT source, sum(intensity) FROM m GROUP BY source")
	sameAnswer(t, peng, cli, "APPROX SELECT count(*) FROM m WHERE nu = 0.5")
}
