package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datalaws"
	"datalaws/internal/codec"
	"datalaws/internal/expr"
	"datalaws/internal/forms"
	"datalaws/internal/wireerr"
)

// newTestServer boots a server over a fresh engine holding table
// big(a BIGINT, b DOUBLE) with n sequential rows.
func newTestServer(t *testing.T, n int, cfg *Config) (*Server, *datalaws.Engine) {
	t.Helper()
	eng := datalaws.NewEngine()
	eng.MustExec("CREATE TABLE big (a BIGINT, b DOUBLE)")
	tb, _ := eng.Catalog.Get("big")
	for i := 0; i < n; i++ {
		if err := tb.AppendRow([]expr.Value{expr.Int(int64(i)), expr.Float(float64(i) * 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if cfg == nil {
		cfg = &Config{}
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(eng, cfg)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, eng
}

func dialTest(t *testing.T, srv *Server) *Client {
	t.Helper()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestQueryRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, 10, nil)
	cli := dialTest(t, srv)

	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if info, err := cli.Exec("INSERT INTO big VALUES (?, ?)", int64(100), 3.25); err != nil || info == "" {
		t.Fatalf("Exec: info=%q err=%v", info, err)
	}
	rows, err := cli.Query("SELECT a, b FROM big WHERE a >= ? ORDER BY a", int64(8))
	if err != nil {
		t.Fatal(err)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("columns = %v", cols)
	}
	var as []int64
	var bs []float64
	for rows.Next() {
		var a int64
		var b float64
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
		bs = append(bs, b)
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 || as[0] != 8 || as[2] != 100 || bs[2] != 3.25 {
		t.Fatalf("got %v %v", as, bs)
	}
}

func TestPreparedStatements(t *testing.T) {
	srv, _ := newTestServer(t, 50, nil)
	cli := dialTest(t, srv)

	st, err := cli.Prepare("SELECT b FROM big WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	for i := int64(0); i < 10; i++ {
		rows, err := st.Query(i)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("row %d missing: %v", i, rows.Err())
		}
		var b float64
		if err := rows.Scan(&b); err != nil {
			t.Fatal(err)
		}
		if b != float64(i)*0.5 {
			t.Fatalf("b = %v for a = %d", b, i)
		}
		_ = rows.Close()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A released statement id is a clean request error, not a dead session.
	if _, err := st.Query(int64(1)); !errors.Is(err, wireerr.ErrBadRequest) {
		t.Fatalf("closed statement gave %v, want ErrBadRequest", err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("session unusable after statement error: %v", err)
	}
}

// TestCursorBatching drives the flow control: a small client batch size
// forces many OpFetch round trips, and every row still arrives in order.
func TestCursorBatching(t *testing.T) {
	const n = 500
	srv, _ := newTestServer(t, n, nil)
	cli := dialTest(t, srv)
	cli.FetchRows = 7

	rows, err := cli.Query("SELECT a FROM big ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for rows.Next() {
		var a int64
		if err := rows.Scan(&a); err != nil {
			t.Fatal(err)
		}
		if a != got {
			t.Fatalf("row %d out of order: a = %d", got, a)
		}
		got++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if got != n {
		t.Fatalf("streamed %d rows, want %d", got, n)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cursor release", func() bool { return srv.Metrics().OpenCursors() == 0 })
}

// TestCursorEarlyClose abandons a cursor after one batch; OpCloseCursor
// must free the server-side Rows without draining the rest.
func TestCursorEarlyClose(t *testing.T) {
	srv, _ := newTestServer(t, 10_000, nil)
	cli := dialTest(t, srv)
	cli.FetchRows = 4

	rows, err := cli.Query("SELECT a FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if srv.Metrics().OpenCursors() != 1 {
		t.Fatalf("open cursors = %d, want 1", srv.Metrics().OpenCursors())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cursor release", func() bool { return srv.Metrics().OpenCursors() == 0 })
	// The session survives an abandoned cursor.
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

// batchSizes drains q through cli's cursor and returns the rows of each
// reply, in order.
func batchSizes(t *testing.T, cli *Client, q string) []int {
	t.Helper()
	rows, err := cli.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for rows.Next() {
		if rows.pos == 1 { // the first row of a new reply
			sizes = append(sizes, len(rows.buf))
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

// serverSized is the batches a server-sized cursor of n rows ships: the
// first holds first rows, each later one twice its predecessor, up to
// maxFetchRows and to the rows that reach batchBytes at rowBytes a row.
func serverSized(n, first, rowBytes int) []int {
	var want []int
	byBytes := (batchBytes + rowBytes - 1) / rowBytes
	for size := first; n > 0; size = min(2*size, maxFetchRows) {
		k := min(size, byBytes, n)
		want = append(want, k)
		n -= k
	}
	return want
}

// TestCursorBatchSizing: when the client leaves the batch to the server,
// the query's reply holds FetchRows rows and every later pull doubles, up
// to maxFetchRows rows and the batchBytes budget, so a 100k-row drain
// takes 12 frames, not the 391 of 256-row pulls. A client that names its
// batch size gets exactly that many rows per reply.
func TestCursorBatchSizing(t *testing.T) {
	const n = 100_000
	srv, eng := newTestServer(t, n, nil)
	cli := dialTest(t, srv)
	// Every row of w encodes to the same 205 bytes: the kind byte and one
	// varint byte of a, the kind byte, a two-byte length and 200 bytes of s.
	const wide, rowBytes = 20_000, 205
	eng.MustExec("CREATE TABLE w (a BIGINT, s VARCHAR)")
	rows := make([][]expr.Value, wide)
	for i := range rows {
		rows[i] = []expr.Value{expr.Int(int64(i % 50)), expr.Str(strings.Repeat("s", 200))}
	}
	if _, err := eng.Append("w", rows); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		q    string
		want []int
	}{
		{"SELECT a, b FROM big", serverSized(n, DefaultFetchRows, 1)}, // ≤ 14 bytes a row: the budget never binds
		{"SELECT a, s FROM w", serverSized(wide, DefaultFetchRows, rowBytes)},
	} {
		got := batchSizes(t, cli, tc.q)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: batches %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := serverSized(n, DefaultFetchRows, 1); len(got) != 12 || got[6] != maxFetchRows {
		t.Fatalf("a 100k-row drain in batches %v, want 12 reaching %d rows", got, maxFetchRows)
	}
	if got := serverSized(wide, DefaultFetchRows, rowBytes); got[5] != 5116 {
		t.Fatalf("wide batches %v: the budget should end the sixth at 5,116 rows", got)
	}

	cli.FetchRows = 64
	got := batchSizes(t, cli, "SELECT a, b FROM big WHERE a < 1000")
	if len(got) != 16 || got[15] != 1000-15*64 {
		t.Fatalf("FetchRows 64: batches %v, want fifteen of 64 and one of 40", got)
	}
	for _, k := range got[:15] {
		if k != 64 {
			t.Fatalf("FetchRows 64: batches %v, want 64 rows each", got)
		}
	}
}

// TestOversizedRowsKeepTheSession: a result whose rows overrun the frame
// cap in a batch ships in smaller batches, and a row that cannot fit a
// frame on its own fails its statement with a bad-request error naming its
// size. Either way the session goes on. Each case runs at the default cap
// and at a 256 KiB one, where a 40,000-byte row that would overrun a batch
// waits for the next.
func TestOversizedRowsKeepTheSession(t *testing.T) {
	for _, maxFrame := range []int{DefaultMaxFrame, 256 << 10} {
		t.Run(fmt.Sprintf("cap=%d", maxFrame), func(t *testing.T) {
			srv, eng := newTestServer(t, 0, &Config{MaxFrame: maxFrame})
			cli := dialTest(t, srv)
			eng.MustExec("CREATE TABLE w (a BIGINT, s VARCHAR)")
			rows := make([][]expr.Value, 300)
			for i := range rows {
				rows[i] = []expr.Value{expr.Int(int64(i)), expr.Str(strings.Repeat(string(rune('a'+i%26)), 40_000))}
			}
			if _, err := eng.Append("w", rows); err != nil {
				t.Fatal(err)
			}
			got, err := cli.Query("SELECT a, s FROM w")
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; got.Next(); i++ {
				var a int64
				var s string
				if err := got.Scan(&a, &s); err != nil {
					t.Fatal(err)
				}
				if a != int64(i) || s != rows[i][1].S {
					t.Fatalf("row %d: a = %d, s of %d bytes", i, a, len(s))
				}
			}
			if err := got.Err(); err != nil || i != len(rows) {
				t.Fatalf("streamed %d of %d rows: %v", i, len(rows), err)
			}
			if err := cli.Ping(); err != nil {
				t.Fatalf("session lost after a large result: %v", err)
			}

			eng.MustExec("CREATE TABLE huge (s VARCHAR)")
			huge := expr.Str(strings.Repeat("h", maxFrame))
			if _, err := eng.Append("huge", [][]expr.Value{{huge}}); err != nil {
				t.Fatal(err)
			}
			var enc codec.Encoder
			forms.EncodeValue(&enc, huge)
			_, err = cli.Query("SELECT s FROM huge")
			if !errors.Is(err, wireerr.ErrBadRequest) || !strings.Contains(err.Error(), fmt.Sprintf("row of %d bytes", len(enc))) {
				t.Fatalf("a row over the cap: %v, want a bad request naming its %d bytes", err, len(enc))
			}
			if err := cli.Ping(); err != nil {
				t.Fatalf("session lost after a row over the cap: %v", err)
			}
			waitFor(t, "cursor release", func() bool { return srv.Metrics().OpenCursors() == 0 })
		})
	}
}

// TestOverCapReplyFailsItsStatement: rows fill a batch up to the frame
// cap less the room kept for the reply's other fields. A reply whose
// column names outgrow that room is refused before any byte is written,
// and the statement fails with a bad-request error instead of the
// session.
func TestOverCapReplyFailsItsStatement(t *testing.T) {
	srv, eng := newTestServer(t, 0, &Config{MaxFrame: 4096})
	cli := dialTest(t, srv)
	eng.MustExec("CREATE TABLE s (v VARCHAR)")
	rows := make([][]expr.Value, 100)
	for i := range rows {
		rows[i] = []expr.Value{expr.Str(strings.Repeat("v", 100))}
	}
	if _, err := eng.Append("s", rows); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Query("SELECT v AS " + strings.Repeat("c", 400) + " FROM s")
	if !errors.Is(err, wireerr.ErrBadRequest) || !strings.Contains(err.Error(), "a reply of") {
		t.Fatalf("a reply over the cap: %v, want a bad request naming the cap", err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("session lost after a reply over the cap: %v", err)
	}
	waitFor(t, "cursor release", func() bool { return srv.Metrics().OpenCursors() == 0 })
}

// TestConcurrentSessions exercises many parallel sessions mixing reads,
// prepared point lookups and ingest; meant to run under -race.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 16
	const iters = 20
	srv, _ := newTestServer(t, 200, nil)

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = cli.Close() }()
			st, err := cli.Prepare("SELECT b FROM big WHERE a = ?")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					rows, err := st.Query(int64(i % 200))
					if err != nil {
						errs <- fmt.Errorf("session %d point: %w", s, err)
						return
					}
					for rows.Next() {
					}
					if err := rows.Err(); err != nil {
						errs <- err
						return
					}
					_ = rows.Close()
				case 1:
					rows, err := cli.Query("SELECT count(*) FROM big")
					if err != nil {
						errs <- fmt.Errorf("session %d scan: %w", s, err)
						return
					}
					for rows.Next() {
					}
					_ = rows.Close()
				default:
					if _, err := cli.Exec("INSERT INTO big VALUES (?, ?)", int64(1000+s), 1.5); err != nil {
						errs <- fmt.Errorf("session %d ingest: %w", s, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e := srv.Metrics().Errors(); e != 0 {
		t.Fatalf("server recorded %d request errors", e)
	}
	waitFor(t, "sessions to close", func() bool { return srv.ActiveSessions() == 0 })
}

// TestClientDisconnectCancelsCursor pins the acceptance criterion:
// killing a client mid-cursor frees its session — cursor released,
// session gone, no goroutine left behind.
func TestClientDisconnectCancelsCursor(t *testing.T) {
	srv, _ := newTestServer(t, 100_000, nil)
	base := runtime.NumGoroutine()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.FetchRows = 8
	rows, err := cli.Query("SELECT a, b FROM big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16 && rows.Next(); i++ {
	}
	if srv.Metrics().OpenCursors() != 1 {
		t.Fatalf("open cursors = %d, want 1", srv.Metrics().OpenCursors())
	}
	// Kill the connection with the cursor still open — no protocol goodbye.
	_ = cli.Close()

	waitFor(t, "session teardown", func() bool {
		return srv.ActiveSessions() == 0 && srv.Metrics().OpenCursors() == 0
	})
	waitFor(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// TestGracefulDrain walks the full drain choreography: idle sessions are
// kicked, new statements are refused with CodeDraining, in-flight cursors
// stream to completion, and Shutdown returns once they do.
func TestGracefulDrain(t *testing.T) {
	srv, _ := newTestServer(t, 300, nil)

	busy := dialTest(t, srv)
	busy.FetchRows = 10
	rows, err := busy.Query("SELECT a FROM big ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	if err := rows.Scan(&first); err != nil {
		t.Fatal(err)
	}

	idle := dialTest(t, srv)
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The idle session gets kicked immediately.
	waitFor(t, "idle session kick", func() bool { return idle.Ping() != nil })
	// New connections are refused: the listener is closed.
	waitFor(t, "listener close", func() bool {
		_, err := net.DialTimeout("tcp", srv.Addr(), 100*time.Millisecond)
		if err != nil {
			return true
		}
		// Dial may succeed against a dead accept queue; a real session
		// cannot be established once Shutdown force-closes it.
		return false
	})

	// The busy session is refused new work but keeps its cursor.
	if _, err := busy.Query("SELECT count(*) FROM big"); !errors.Is(err, wireerr.ErrDraining) {
		t.Fatalf("query during drain gave %v, want ErrDraining", err)
	}
	n := int64(1)
	for rows.Next() {
		n++
	}
	if rows.Err() != nil {
		t.Fatalf("drain interrupted the in-flight cursor: %v", rows.Err())
	}
	if n != 300 {
		t.Fatalf("cursor streamed %d rows under drain, want 300", n)
	}

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the last cursor finished")
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("sessions alive after Shutdown: %d", srv.ActiveSessions())
	}
}

// TestShutdownDeadlineForceCloses pins the drain deadline: a session that
// parks on an open cursor forever cannot hold Shutdown hostage.
func TestShutdownDeadlineForceCloses(t *testing.T) {
	srv, _ := newTestServer(t, 10_000, nil)
	cli := dialTest(t, srv)
	cli.FetchRows = 4
	rows, err := cli.Query("SELECT a FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	// Never fetch again; the session holds its cursor open.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Shutdown took %v past its deadline", d)
	}
	waitFor(t, "forced teardown", func() bool { return srv.ActiveSessions() == 0 })
}

// TestSentinelsCrossTheFrames pins errors.Is matching across the framed
// protocol, end to end through the engine.
func TestSentinelsCrossTheFrames(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	cli := dialTest(t, srv)

	_, err := cli.Query("SELECT a FROM nope")
	if !errors.Is(err, datalaws.ErrUnknownTable) {
		t.Fatalf("unknown-table sentinel lost in transit: %v", err)
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("message lost in transit: %v", err)
	}
	// A clean request error leaves the session healthy.
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRefusesOversizedFrames pins the allocation bound on the new
// protocol: a frame header past MaxFrame drops the connection before the
// payload is read, and the server keeps serving.
func TestServerRefusesOversizedFrames(t *testing.T) {
	srv, _ := newTestServer(t, 1, &Config{MaxFrame: 1 << 12})

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64<<20) // claim a 64MB payload
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered an oversized frame instead of dropping it")
	}

	// Well-behaved sessions still work.
	cli := dialTest(t, srv)
	if err := cli.Ping(); err != nil {
		t.Fatalf("server unusable after rejecting an oversized frame: %v", err)
	}
	waitFor(t, "bad session teardown", func() bool { return srv.ActiveSessions() <= 1 })
}

func TestWriteMsgRespectsCap(t *testing.T) {
	var sink strings.Builder
	big := &Request{Op: OpQuery, SQL: strings.Repeat("x", 1<<12)}
	err := writeMsg(&sink, big, 1<<10)
	var tooBig *errFrameTooBig
	if !errors.As(err, &tooBig) {
		t.Fatalf("writeMsg = %v, want errFrameTooBig", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("writeMsg leaked %d bytes of a refused frame", sink.Len())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 100, nil)
	cli := dialTest(t, srv)

	for i := 0; i < 5; i++ {
		rows, err := cli.Query("SELECT a FROM big WHERE a < ?", int64(10))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		_ = rows.Close()
	}
	if _, err := cli.Query("SELECT a FROM nope"); err == nil {
		t.Fatal("expected an error for the metrics counter")
	}

	rec := httptest.NewRecorder()
	srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"datalaws_qps ",
		"datalaws_latency_p50_seconds ",
		"datalaws_latency_p99_seconds ",
		"datalaws_queries_total 6",
		"datalaws_query_errors_total 1",
		"datalaws_route_exact_total 5",
		"datalaws_sessions_active 1",
		"datalaws_refits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

// TestSameReportOnEveryCursor: the materialized result, the in-process
// cursor, a prepared statement and the remote cursor (unprepared and
// prepared) carry one statement's datalaws.Report unchanged, on every route.
func TestSameReportOnEveryCursor(t *testing.T) {
	eng := datalaws.NewEngine()
	eng.AQP.FallbackExact = true
	for _, tb := range []string{"m", "h", "r"} {
		eng.MustExec("CREATE TABLE " + tb + " (source BIGINT, nu DOUBLE, intensity DOUBLE)")
		if _, err := eng.Append(tb, lawRows(4, 0.05, 11)); err != nil {
			t.Fatal(err)
		}
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	eng.MustExec(`FIT MODEL upper ON h AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source WHERE nu > 1 START (a = 1, b = 0)`)
	srv := New(eng, &Config{Logf: t.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cli := dialTest(t, srv)
	ctx := context.Background()

	ways := map[string]func(sql string) (datalaws.Report, error){
		"Engine.Exec": func(sql string) (datalaws.Report, error) {
			res, err := eng.Exec(sql)
			if err != nil {
				return datalaws.Report{}, err
			}
			return res.Report, nil
		},
		"Engine.Query": func(sql string) (datalaws.Report, error) {
			rows, err := eng.Query(ctx, sql)
			if err != nil {
				return datalaws.Report{}, err
			}
			return rows.Report, rows.Close()
		},
		"Stmt.Exec": func(sql string) (datalaws.Report, error) {
			st, err := eng.Prepare(sql)
			if err != nil {
				return datalaws.Report{}, err
			}
			res, err := st.Exec(ctx)
			if err != nil {
				return datalaws.Report{}, err
			}
			return res.Report, nil
		},
		"Client.Query": func(sql string) (datalaws.Report, error) {
			rows, err := cli.Query(sql)
			if err != nil {
				return datalaws.Report{}, err
			}
			return rows.Report, rows.Close()
		},
		"Client Stmt.Query": func(sql string) (datalaws.Report, error) {
			st, err := cli.Prepare(sql)
			if err != nil {
				return datalaws.Report{}, err
			}
			defer st.Close()
			rows, err := st.Query()
			if err != nil {
				return datalaws.Report{}, err
			}
			return rows.Report, rows.Close()
		},
	}
	for _, tc := range []struct {
		before, sql string
		want        datalaws.Report
		after       string // undoes before and the statement so they can run again
	}{
		{sql: "APPROX SELECT intensity FROM m WHERE source = 1 AND nu = 0.5",
			want: datalaws.Report{Model: "law", ModelVersion: 1, ApproxGrid: 32, SEInflation: 1}},
		{sql: "APPROX SELECT avg(intensity) FROM m WHERE nu >= 0.5",
			want: datalaws.Report{Model: "law", ModelVersion: 1, ApproxGrid: 32, SEInflation: 1}},
		{sql: "APPROX SELECT avg(intensity) FROM h",
			want: datalaws.Report{Model: "upper", ModelVersion: 1, ApproxGrid: 32, Hybrid: true, SEInflation: 1}},
		{sql: "APPROX SELECT avg(intensity) FROM r", want: datalaws.Report{ExactFallback: true}},
		{sql: "SELECT avg(intensity) FROM m"},
		{sql: `FIT MODEL fresh ON r AS 'intensity ~ a * nu' INPUTS (nu) START (a = 1)`,
			want: datalaws.Report{Model: "fresh", ModelVersion: 1}, after: "DROP MODEL fresh"},
		{before: `FIT MODEL again ON r AS 'intensity ~ a * nu' INPUTS (nu) START (a = 1)`,
			sql:  "REFIT MODEL again",
			want: datalaws.Report{Model: "again", ModelVersion: 2}, after: "DROP MODEL again"},
	} {
		for way, run := range ways {
			if tc.before != "" {
				eng.MustExec(tc.before)
			}
			got, err := run(tc.sql)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.sql, way, err)
			}
			if got != tc.want {
				t.Errorf("%s via %s: report %+v, want %+v", tc.sql, way, got, tc.want)
			}
			if tc.after != "" {
				eng.MustExec(tc.after)
			}
		}
	}
}
