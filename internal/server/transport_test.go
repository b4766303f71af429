package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/wireerr"
)

// tempNetErr is a retryable accept failure (like a handshake timeout or
// transient fd exhaustion).
type tempNetErr struct{}

func (tempNetErr) Error() string   { return "synthetic temporary accept error" }
func (tempNetErr) Timeout() bool   { return true }
func (tempNetErr) Temporary() bool { return true }

// fakeListener scripts Accept results for the accept-loop tests.
type fakeListener struct {
	accept func() (net.Conn, error)
	mu     sync.Mutex
	calls  int
	once   sync.Once
	closed chan struct{}
}

func newFakeListener(accept func() (net.Conn, error)) *fakeListener {
	return &fakeListener{accept: accept, closed: make(chan struct{})}
}

func (l *fakeListener) Accept() (net.Conn, error) {
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
	}
	l.mu.Lock()
	l.calls++
	l.mu.Unlock()
	return l.accept()
}

func (l *fakeListener) callCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *fakeListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

func serveFake(t *testing.T, ln *fakeListener) *Server {
	t.Helper()
	srv := New(datalaws.NewEngine(), &Config{Logf: t.Logf})
	if err := srv.ServeListener(ln); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAcceptLoopBacksOffOnTemporaryErrors: a listener failing persistently
// with a retryable error must not drive the accept loop at 100% CPU. With
// backoff, a 150ms window sees a handful of attempts, and Close still
// returns promptly while the loop sleeps.
func TestAcceptLoopBacksOffOnTemporaryErrors(t *testing.T) {
	ln := newFakeListener(func() (net.Conn, error) { return nil, tempNetErr{} })
	srv := serveFake(t, ln)
	time.Sleep(150 * time.Millisecond)
	// Backoff doubles from 5ms: ~6 attempts fit in 150ms. Anything under
	// 30 proves the loop is sleeping; a spinning loop makes millions.
	if calls := ln.callCount(); calls == 0 || calls > 30 {
		t.Fatalf("%d Accept calls in 150ms", calls)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close blocked %v on a backing-off accept loop", d)
	}
}

// TestAcceptLoopStopsOnPermanentError: a non-retryable Accept error stops
// the loop instead of retrying forever.
func TestAcceptLoopStopsOnPermanentError(t *testing.T) {
	ln := newFakeListener(func() (net.Conn, error) { return nil, errors.New("listener torn down by the platform") })
	srv := serveFake(t, ln)
	waitFor(t, "first Accept", func() bool { return ln.callCount() > 0 })
	time.Sleep(50 * time.Millisecond)
	if calls := ln.callCount(); calls != 1 {
		t.Fatalf("accept loop kept retrying a permanent error: %d calls", calls)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClientPoisonedAfterTransportError: after a transport error the
// client cannot tell which request died, so it must refuse further calls,
// naming the poisoning, instead of reading a stale frame as the next reply.
func TestClientPoisonedAfterTransportError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	// A byzantine peer: answers the first request with a garbage frame
	// followed by a valid reply, then keeps answering. An unpoisoned client
	// would take the stale valid frame as the reply to its next call.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		stale := &Response{Done: true}
		for {
			if readMsg(conn, new(Request), DefaultMaxFrame) != nil {
				return
			}
			var garbage [8]byte
			binary.BigEndian.PutUint32(garbage[:4], 4)
			copy(garbage[4:], "junk")
			if _, err := conn.Write(garbage[:]); err != nil || writeMsg(conn, stale, DefaultMaxFrame) != nil {
				return
			}
		}
	}()

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if err := cli.Ping(); err == nil {
		t.Fatal("first call should fail on the garbage frame")
	}
	done := make(chan error, 1)
	go func() { done <- cli.Ping() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("second call = %v, want a failure naming the poisoning", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second call on a poisoned client hung instead of failing fast")
	}
}

// writeMsg and readMsg write and read one frame through a framer of their
// own, for tests that handle single frames.
func writeMsg(w io.Writer, m message, max int) error {
	var f framer
	return f.write(w, m, max)
}

func readMsg(r io.Reader, m message, max int) error {
	var f framer
	return f.read(r, m, max)
}

// TestFrameAllocBudget bounds one frame encode + decode through reused
// buffers, the per-round-trip floor every statement pays: a two-argument
// prepared-statement request and a one-row, three-column point reply. What
// is left is what a decoded message keeps: the message, its lists and its
// strings. The budgets are the counts measured with go1.24 (2 and 8) plus
// 3%, so a copy or a buffer that is no longer reused fails the test.
func TestFrameAllocBudget(t *testing.T) {
	req := &Request{Op: OpStmtQuery, StmtID: 1, Args: []expr.Value{expr.Int(42), expr.Float(0.14)}}
	reply := &Response{
		Columns: []string{"intensity", "intensity_lo", "intensity_hi"},
		Rows:    [][]expr.Value{{expr.Float(0.61), expr.Float(0.58), expr.Float(0.64)}},
		Done:    true, Report: datalaws.Report{Model: "spectra", ModelVersion: 1, SEInflation: 1},
	}
	for _, tc := range []struct {
		name   string
		out    message
		in     func() message
		budget float64
	}{
		{"stmt-query request", req, func() message { return new(Request) }, 2.06},
		{"point reply", reply, func() message { return new(Response) }, 8.24},
	} {
		var f framer
		var buf bytes.Buffer
		allocs := testing.AllocsPerRun(200, func() {
			buf.Reset()
			if err := f.write(&buf, tc.out, DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
			if err := f.read(&buf, tc.in(), DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per encode + decode (budget %.2f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per encode + decode, budget %.2f", tc.name, allocs, tc.budget)
		}
	}
}

// TestStmtRoundTripAllocBudget bounds a whole prepared APPROX point over
// loopback, counting both ends: the client's request and reply frames, the
// server's reader and handler, and the engine's execution. The budget is
// the count measured with go1.24 (32) plus 3%.
func TestStmtRoundTripAllocBudget(t *testing.T) {
	srv, _ := newPrimary(t)
	cli := dialTest(t, srv)
	st, err := cli.Prepare("APPROX SELECT intensity, intensity_lo, intensity_hi FROM m WHERE source = ? AND nu = ? WITH ERROR")
	if err != nil {
		t.Fatal(err)
	}
	var y, lo, hi float64
	point := func() {
		rows, err := st.Query(int64(1), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no row: %v", rows.Err())
		}
		if err := rows.Scan(&y, &lo, &hi); err != nil {
			t.Fatal(err)
		}
		if rows.Next() || rows.Close() != nil {
			t.Fatal("more than one row")
		}
	}
	const budget = 32.96
	allocs := testing.AllocsPerRun(500, point)
	t.Logf("%.1f allocs per prepared APPROX point round trip (budget %.2f)", allocs, budget)
	if allocs > budget {
		t.Errorf("%.1f allocs per prepared APPROX point round trip, budget %.2f", allocs, budget)
	}
}

// TestScanDrainAllocBudget bounds a 100k-row SELECT a, b drained through
// a Client over loopback, counting both ends: the pipeline's batches, the
// server's frames and the client's decoded replies. No row may cost an
// allocation, on either end. The budget is the highest count measured
// with go1.24 (134, and 141 under the race detector) plus 3%. With a
// fresh row per result row and 391 256-row replies it was 102,425.
func TestScanDrainAllocBudget(t *testing.T) {
	const n = 100_000
	srv, _ := newTestServer(t, n, nil)
	cli := dialTest(t, srv)
	drain := func() {
		rows, err := cli.Query("SELECT a, b FROM big")
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for ; rows.Next(); k++ {
		}
		if err := rows.Err(); err != nil || k != n {
			t.Fatalf("drained %d of %d rows: %v", k, n, err)
		}
	}
	drain()
	const budget = 145.0
	allocs := testing.AllocsPerRun(5, drain)
	t.Logf("%.0f allocs per %d-row drain (budget %.0f)", allocs, n, budget)
	if allocs > budget {
		t.Errorf("%.0f allocs per %d-row drain, budget %.0f", allocs, n, budget)
	}
}

// TestFrameReadGrowsWithPayload: a frame's buffer grows with the bytes
// that arrive, not with the length its prefix declares, and a buffer grown
// past keepBytes for one frame is dropped once the frame is decoded.
func TestFrameReadGrowsWithPayload(t *testing.T) {
	var f framer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f.read(bytes.NewReader([]byte{0x00, 0x80, 0x00, 0x00}), new(Request), DefaultMaxFrame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame that ends after its 8 MiB length prefix was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("an 8 MiB length prefix with no payload allocated %d bytes", got)
	}

	var buf bytes.Buffer
	big := &Request{Op: OpQuery, SQL: strings.Repeat("x", keepBytes+1)}
	for _, m := range []*Request{big, {Op: OpPing}} {
		if err := writeMsg(&buf, m, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range []*Request{big, {Op: OpPing}} {
		var got Request
		if err := f.read(&buf, &got, DefaultMaxFrame); err != nil || got.SQL != m.SQL {
			t.Fatalf("frame %d: %v, SQL of %d bytes", i, err, len(got.SQL))
		}
		if cap(f.in) > keepBytes {
			t.Fatalf("frame %d: a %d-byte buffer kept past the frame", i, cap(f.in))
		}
	}
}

// gobEraPing is a ping request as a client from before the hello sent it:
// a length prefix and a self-describing gob stream.
const gobEraPing = "000000ddff877f030101075265717565737401ff8000010a01024f70010600010353514c010c0001044172677301ff8400010653746d7449440106000108437572736f72494401060001074d6178526f77730104000108466565645465726d010600010746656564536571010600010a576169744d696c6c697301040001094d617844656c74617301040000001bff830201010c5b5d657870722e56616c756501ff840001ff82000031ff810301010556616c756501ff8200010501014b010600010149010400010146010800010153010c00010142010200000005ff80010700"

// TestPeerSpeakingAnotherProtocol: a connection that opens with a gob-era
// frame, or with a hello of another version, gets one reply naming the
// protocol mismatch and is closed, rather than left hanging; one that
// sends the hello and then an oversized frame is dropped unanswered; the
// server keeps serving clients that speak its protocol.
func TestPeerSpeakingAnotherProtocol(t *testing.T) {
	srv := New(datalaws.NewEngine(), &Config{Logf: t.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	gobFrame, err := hex.DecodeString(gobEraPing)
	if err != nil {
		t.Fatal(err)
	}
	otherVersion := hello
	otherVersion[4]++
	for _, tc := range []struct {
		name  string
		first []byte
		want  string
	}{
		{"gob-era frame", gobFrame, "not the datalaws wire hello"},
		{"hello of another version", otherVersion[:], fmt.Sprintf("wire version %d, this server version %d", otherVersion[4], hello[4])},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(tc.first); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var resp Response
		if err := readMsg(conn, &resp, DefaultMaxFrame); err != nil {
			t.Fatalf("%s: no refusal: %v", tc.name, err)
		}
		if resp.ErrCode != wireerr.CodeBadRequest || !strings.Contains(resp.ErrMsg, "protocol mismatch") || !strings.Contains(resp.ErrMsg, tc.want) {
			t.Fatalf("%s: refusal %q %q, want a bad request naming the protocol mismatch (%q)", tc.name, resp.ErrCode, resp.ErrMsg, tc.want)
		}
		if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the refusal read %d bytes, err %v; want the connection closed", tc.name, n, err)
		}
		_ = conn.Close()
	}
	// After the hello, a frame header past the cap drops the connection
	// with no reply, before the payload is read.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	oversized := binary.BigEndian.AppendUint32(hello[:], DefaultMaxFrame+1)
	if _, err := conn.Write(oversized); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("an oversized frame after the hello was answered with %d bytes", n)
	}
	cli := dialTest(t, srv)
	if err := cli.Ping(); err != nil {
		t.Fatalf("server unusable after refusing peers: %v", err)
	}
}

// FuzzFrame throws arbitrary bytes at the frame reader as both ends read
// them: a Request, what the server reads from the network, and a Response,
// what the client reads; and at the hello check, what the server reads
// first. Seeds are real frames from the session handler: a stmt-query
// request, a point reply, a fetch reply and a subscribe reply carrying
// deltas, increments and growth; and the hello. The invariants: nothing
// panics; only the hello passes the hello check; a declared length above
// the cap is refused from the 4-byte header alone, before the payload is
// read or allocated; beside the payload buffer, decoding allocates no more
// than a fixed multiple of the frame's bytes, so no count the frame cannot
// hold sizes an allocation; an accepted frame re-encodes to the same bytes; and a
// decoded Response survives newRows (drained through a closed client, so
// a fetch fails instead of dialing) and deltaBatch.
func FuzzFrame(f *testing.F) {
	eng := datalaws.NewEngine()
	eng.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	if _, err := eng.Append("m", lawRows(4, 0.05, 11)); err != nil {
		f.Fatal(err)
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	if _, err := eng.Append("m", lawRows(4, 0.05, 12)[:4]); err != nil { // growth since the fit
		f.Fatal(err)
	}
	eng.MustExec("CREATE TABLE big (a BIGINT)")
	seq := make([][]expr.Value, 5000)
	for i := range seq {
		seq[i] = []expr.Value{expr.Int(int64(i))}
	}
	if _, err := eng.Append("big", seq); err != nil {
		f.Fatal(err)
	}
	sess := &session{srv: New(eng, &Config{}), ctx: context.Background(),
		stmts: map[uint64]*datalaws.Stmt{}, cursors: map[uint64]*cursor{}}
	defer sess.teardown()
	frame := func(m message) []byte {
		if resp, ok := m.(*Response); ok && resp.ErrMsg != "" {
			f.Fatal(resp.ErrMsg)
		}
		var buf bytes.Buffer
		if err := writeMsg(&buf, m, DefaultMaxFrame); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	prep := sess.handle(&Request{Op: OpPrepare, SQL: "APPROX SELECT intensity, intensity_lo, intensity_hi FROM m WHERE source = ? AND nu = ? WITH ERROR"})
	req := &Request{Op: OpStmtQuery, StmtID: prep.StmtID, Args: []expr.Value{expr.Int(1), expr.Float(0.5)}}
	f.Add(frame(req))
	f.Add(frame(sess.handle(req)))
	first := sess.handle(&Request{Op: OpQuery, SQL: "SELECT source, nu, intensity FROM m", MaxRows: 4})
	f.Add(frame(sess.handle(&Request{Op: OpFetch, CursorID: first.CursorID, MaxRows: 4})))
	scan := sess.handle(&Request{Op: OpQuery, SQL: "SELECT a FROM big"})
	if fetch := sess.handle(&Request{Op: OpFetch, CursorID: scan.CursorID, MaxRows: 4000}); fetch.rowCount() != 4000 {
		f.Fatalf("a fetch of 4,000 rows replied with %d", fetch.rowCount())
	} else {
		f.Add(frame(fetch))
	}
	sub := sess.handle(&Request{Op: OpSubscribeModels})
	if len(sub.Deltas) == 0 || len(sub.Increments) == 0 || len(sub.Growth) == 0 {
		f.Fatalf("subscribe reply with %d deltas, %d increments, growth %v; want all three", len(sub.Deltas), len(sub.Increments), sub.Growth)
	}
	f.Add(frame(sub))
	f.Add(hello[:])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})

	const max = 1 << 16
	// allocPerByte bounds what one frame byte may decode to: a NULL value
	// is one byte and a 48-byte expr.Value.
	const allocPerByte, allocFixed = 64, 8 << 10
	closed := &Client{err: errClientClosed, closed: true}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if err := readHello(bytes.NewReader(frame), max); (err == nil) != bytes.HasPrefix(frame, hello[:]) {
			t.Fatalf("hello check of % x: %v", frame[:min(len(frame), len(hello))], err)
		}
		for _, m := range []message{new(Request), new(Response)} {
			r := bytes.NewReader(frame)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readMsg(r, m, max)
			runtime.ReadMemStats(&after)
			var big *errFrameTooBig
			if len(frame) >= 4 && binary.BigEndian.Uint32(frame) > max && (!errors.As(err, &big) || r.Len() != len(frame)-4) {
				t.Fatalf("declared length %d over cap %d: err %v, %d bytes left unread", binary.BigEndian.Uint32(frame), max, err, r.Len())
			}
			// The payload buffer grows with the bytes that arrive, and
			// what the payload decodes to is bounded by the bytes it
			// holds, so the length prefix sizes nothing.
			limit := uint64(allocPerByte*len(frame) + allocFixed)
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Fatalf("reading a %d-byte frame allocated %d bytes", len(frame), got)
			}
			if err != nil {
				continue
			}
			var back bytes.Buffer
			if err := writeMsg(&back, m, max); err != nil {
				t.Fatal(err)
			}
			if read := frame[:len(frame)-r.Len()]; !bytes.Equal(back.Bytes(), read) {
				t.Fatalf("re-encoded frame differs\nread % x\nback % x", read, back.Bytes())
			}
			resp, ok := m.(*Response)
			if !ok {
				continue
			}
			rows := newRows(closed, resp)
			if rows.Report != resp.Report {
				t.Fatalf("newRows reports %+v, the frame %+v", rows.Report, resp.Report)
			}
			for rows.Next() {
				var x float64
				var y any
				for i := range rows.Row() {
					_ = rows.Row()[i].Scan(&x)
					_ = rows.Row()[i].Scan(&y)
				}
			}
			_ = rows.Close()
			_ = deltaBatch(resp)
		}
	})
}
