package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"datalaws"
	"datalaws/internal/expr"
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

// TestFrameAllocBudget bounds one frame encode + decode, the per-round-trip
// floor every statement pays: a two-argument prepared-statement request and
// a one-row, three-column point reply. The budgets are the counts measured
// with go1.24 (251 and 646) plus 3%, so a new field on Request or Response
// (each frame re-sends its gob type descriptors) fails the test.
func TestFrameAllocBudget(t *testing.T) {
	req := &Request{Op: OpStmtQuery, StmtID: 1, Args: []expr.Value{expr.Int(42), expr.Float(0.14)}}
	reply := &Response{
		Columns: []string{"intensity", "intensity_lo", "intensity_hi"},
		Rows:    [][]expr.Value{{expr.Float(0.61), expr.Float(0.58), expr.Float(0.64)}},
		Done:    true, Model: "spectra", ModelVersion: 1, SEInflation: 1,
	}
	for _, tc := range []struct {
		name   string
		out    any
		in     func() any
		budget float64
	}{
		{"stmt-query request", req, func() any { return new(Request) }, 258},
		{"point reply", reply, func() any { return new(Response) }, 665},
	} {
		var buf bytes.Buffer
		allocs := testing.AllocsPerRun(200, func() {
			buf.Reset()
			if err := writeMsg(&buf, tc.out, DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
			if err := readMsg(&buf, tc.in(), DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per encode + decode (budget %.0f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per encode + decode, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// FuzzFrame throws arbitrary bytes at readMsg as both ends read them: a
// Request, what the server reads from the network, and a Response, what
// the client reads. Seeds are real frames from the session handler: a
// stmt-query request, a point reply, a fetch reply and a subscribe reply.
// The invariants: decoding never panics; a declared length above the cap
// is refused from the 4-byte header alone, before the payload is read or
// allocated; and a decoded Response survives report, newRows (drained
// through a closed client, so a fetch fails instead of dialing) and
// deltaBatch.
func FuzzFrame(f *testing.F) {
	eng := datalaws.NewEngine()
	eng.MustExec("CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)")
	if _, err := eng.Append("m", lawRows(4, 0.05, 11)); err != nil {
		f.Fatal(err)
	}
	eng.MustExec(`FIT MODEL law ON m AS 'intensity ~ a * nu + b' INPUTS (nu) GROUP BY source START (a = 1, b = 0)`)
	sess := &session{srv: New(eng, &Config{}), ctx: context.Background(),
		stmts: map[uint64]*datalaws.Stmt{}, cursors: map[uint64]*datalaws.Rows{}}
	defer sess.teardown()
	prep := sess.handle(&Request{Op: OpPrepare, SQL: "APPROX SELECT intensity, intensity_lo, intensity_hi FROM m WHERE source = ? AND nu = ? WITH ERROR"})
	req := &Request{Op: OpStmtQuery, StmtID: prep.StmtID, Args: []expr.Value{expr.Int(1), expr.Float(0.5)}}
	first := sess.handle(&Request{Op: OpQuery, SQL: "SELECT source, nu, intensity FROM m", MaxRows: 4})
	for _, msg := range []any{req, sess.handle(req), sess.handle(&Request{Op: OpFetch, CursorID: first.CursorID, MaxRows: 4}),
		sess.handle(&Request{Op: OpSubscribeModels})} {
		if resp, ok := msg.(*Response); ok && resp.ErrMsg != "" {
			f.Fatal(resp.ErrMsg)
		}
		var buf bytes.Buffer
		if err := writeMsg(&buf, msg, DefaultMaxFrame); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})

	const max = 1 << 16
	closed := &Client{err: errClientClosed, closed: true}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, v := range []any{new(Request), new(Response)} {
			r := bytes.NewReader(frame)
			err := readMsg(r, v, max)
			var big *errFrameTooBig
			if len(frame) >= 4 && binary.BigEndian.Uint32(frame) > max && (!errors.As(err, &big) || r.Len() != len(frame)-4) {
				t.Fatalf("declared length %d over cap %d: err %v, %d bytes left unread", binary.BigEndian.Uint32(frame), max, err, r.Len())
			}
			resp, ok := v.(*Response)
			if err != nil || !ok {
				continue
			}
			rows := newRows(closed, resp)
			if rows.Report != resp.report() {
				t.Fatalf("newRows reports %+v, the frame %+v", rows.Report, resp.report())
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
			_, _ = deltaBatch(resp)
		}
	})
}
