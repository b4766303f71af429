package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/wireerr"
)

// errClientClosed poisons calls after an explicit Close, distinguishing a
// deliberate shutdown from a torn connection.
var errClientClosed = errors.New("server: client closed")

// Client is a session against a datalawsd server: one TCP connection,
// prepared statements bound to server-side ids, streaming cursors pulled
// batch by batch. A Client serializes its calls internally, so cursors
// and statements of one client may be used from one goroutine at a time;
// open one client per concurrent session (they are cheap — the server
// side is a goroutine and two maps). A Client is also the remote
// capture.Backend of the paper's Figure 2 strawman (strawman.go).
//
// The client poisons itself on the first transport error: the framed
// protocol cannot desync, but a torn connection cannot say which in-flight
// request died, so later calls fail fast with the original error and the
// caller redials.
type Client struct {
	// FetchRows is the batch size cursors request per pull (the
	// client-driven flow control): every reply holds that many rows, or
	// fewer at the end of the result or where the rows would overrun a
	// frame. 0 lets the server choose: DefaultFetchRows rows in the
	// query's reply, doubling on each later pull up to 16,384 rows or
	// 1 MiB. Set before issuing queries.
	FetchRows int

	mu       sync.Mutex
	conn     net.Conn
	f        framer
	maxFrame int
	err      error
	closed   bool
}

// Dial connects to a server and sends the protocol's hello. A server that
// speaks another version answers the first call with an error naming the
// mismatch.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	if _, err := conn.Write(hello[:]); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("server: dial %s: hello: %w", addr, err)
	}
	return &Client{conn: conn, maxFrame: DefaultMaxFrame}, nil
}

// Close terminates the session; the server releases its statements and
// cursors. Idempotent, and later calls on the client (including a
// Rows.Close racing this) fail fast with errClientClosed instead of
// writing to a dead socket.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.err == nil {
		c.err = errClientClosed
	}
	return c.conn.Close()
}

// call runs one request/response round trip.
func (c *Client) call(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		if errors.Is(c.err, errClientClosed) {
			return nil, c.err
		}
		return nil, fmt.Errorf("server: client poisoned by earlier transport error: %w", c.err)
	}
	if err := c.f.write(c.conn, req, c.maxFrame); err != nil {
		c.poison(err)
		return nil, fmt.Errorf("server: send %s: %w", req.Op, err)
	}
	resp := new(Response)
	if err := c.f.read(c.conn, resp, c.maxFrame); err != nil {
		c.poison(err)
		return nil, fmt.Errorf("server: receive %s: %w", req.Op, err)
	}
	if resp.ErrMsg != "" {
		// A server-reported failure is a clean request outcome: the
		// session stays framed and usable.
		return nil, wireerr.Rehydrate(resp.ErrCode, resp.ErrMsg)
	}
	return resp, nil
}

// poison marks the connection unusable; called with c.mu held.
func (c *Client) poison(err error) {
	c.err = err
	_ = c.conn.Close()
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Op: OpPing})
	return err
}

// Query executes one SQL statement and returns its streaming cursor.
func (c *Client) Query(sql string, args ...any) (*Rows, error) {
	vals, err := expr.ValuesOf(args)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	resp, err := c.call(&Request{Op: OpQuery, SQL: sql, Args: vals, MaxRows: c.FetchRows})
	if err != nil {
		return nil, err
	}
	return newRows(c, resp), nil
}

// Exec executes one statement to completion, discarding any rows, and
// returns the statement's Info summary — the convenience form for DDL,
// INSERT and FIT MODEL.
func (c *Client) Exec(sql string, args ...any) (string, error) {
	rows, err := c.Query(sql, args...)
	if err != nil {
		return "", err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		_ = rows.Close()
		return "", err
	}
	return rows.Info, rows.Close()
}

// Prepare parses sql once server-side, returning a reusable handle.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	resp, err := c.call(&Request{Op: OpPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: resp.StmtID, numParams: resp.NumParams}, nil
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c         *Client
	id        uint64
	numParams int
}

// NumParams reports the statement's `?` placeholder count.
func (st *Stmt) NumParams() int { return st.numParams }

// Query executes the prepared statement with bound args.
func (st *Stmt) Query(args ...any) (*Rows, error) {
	vals, err := expr.ValuesOf(args)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	resp, err := st.c.call(&Request{Op: OpStmtQuery, StmtID: st.id, Args: vals, MaxRows: st.c.FetchRows})
	if err != nil {
		return nil, err
	}
	return newRows(st.c, resp), nil
}

// Close releases the server-side statement id.
func (st *Stmt) Close() error {
	_, err := st.c.call(&Request{Op: OpCloseStmt, StmtID: st.id})
	return err
}

// Rows is a client-side streaming cursor: Next pulls batches from the
// server on demand (each pull sized by the client's FetchRows, or by the
// server), so an abandoned or LIMITed read never ships — or materializes —
// the rest of the result.
type Rows struct {
	// Info and Report come with the first response.
	Info string
	datalaws.Report

	c        *Client
	cursorID uint64
	cols     []string
	buf      [][]expr.Value
	pos      int
	cur      []expr.Value
	done     bool
	err      error
	closed   bool
}

func newRows(c *Client, resp *Response) *Rows {
	return &Rows{
		Info:     resp.Info,
		Report:   resp.Report,
		c:        c,
		cursorID: resp.CursorID,
		cols:     resp.Columns,
		buf:      resp.Rows,
		done:     resp.Done,
	}
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances the cursor, fetching the next batch from the server when
// the local buffer drains. It reports false at end of stream or on error
// (check Err afterwards).
func (r *Rows) Next() bool {
	if r.err != nil || r.closed {
		return false
	}
	for r.pos >= len(r.buf) {
		if r.done {
			return false
		}
		resp, err := r.c.call(&Request{Op: OpFetch, CursorID: r.cursorID, MaxRows: r.c.FetchRows})
		if err != nil {
			r.err = err
			r.done = true
			return false
		}
		r.buf, r.pos = resp.Rows, 0
		r.done = resp.Done
		if r.done {
			r.cursorID = 0 // server already released the cursor
		}
	}
	r.cur = r.buf[r.pos]
	r.pos++
	return true
}

// Row returns the current row; valid until the next call to Next.
func (r *Rows) Row() []expr.Value { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Scan copies the current row into dest, one pointer per column.
// Supported targets: *int64, *float64 (INT coerces), *string, *bool,
// *expr.Value, *any.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("server: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("server: Scan got %d targets for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if err := r.cur[i].Scan(d); err != nil {
			return fmt.Errorf("server: Scan column %d: %w", i, err)
		}
	}
	return nil
}

// Close releases the cursor, telling the server to free it if the stream
// was abandoned early. Idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.cursorID == 0 || r.done || r.err != nil {
		return nil
	}
	_, err := r.c.call(&Request{Op: OpCloseCursor, CursorID: r.cursorID})
	return err
}

// DeltaBatch is one reply from the model changefeed: deltas and domain
// increments to apply, the cursor to poll from next, and the primary's
// current growth snapshot.
type DeltaBatch struct {
	Deltas     []ModelDelta
	Increments []DomainIncrement
	Term       uint64
	Seq        uint64
	// Resync marks a batch that replaces the subscriber's whole model
	// catalog: models absent from it no longer exist on the primary.
	Resync bool
	// Growth maps model name → unmodeled-row growth fraction on the
	// primary, the staleness signal a row-less replica cannot measure.
	Growth map[string]float64
}

func deltaBatch(resp *Response) *DeltaBatch {
	return &DeltaBatch{
		Deltas:     resp.Deltas,
		Increments: resp.Increments,
		Term:       resp.FeedTerm,
		Seq:        resp.FeedSeq,
		Resync:     resp.Resync,
		Growth:     resp.Growth,
	}
}

// SubscribeModels fetches the primary's full model catalog as a resync
// batch; poll the returned cursor with PollDeltas for increments.
func (c *Client) SubscribeModels() (*DeltaBatch, error) {
	resp, err := c.call(&Request{Op: OpSubscribeModels})
	if err != nil {
		return nil, err
	}
	return deltaBatch(resp), nil
}

// PollDeltas long-polls the model changefeed from (term, seq), blocking
// server-side up to wait for new deltas; an empty batch after wait is a
// healthy caught-up poll, not an error. max caps the deltas per reply
// (0 takes the server default).
func (c *Client) PollDeltas(term, seq uint64, wait time.Duration, max int) (*DeltaBatch, error) {
	resp, err := c.call(&Request{
		Op:         OpModelDelta,
		FeedTerm:   term,
		FeedSeq:    seq,
		WaitMillis: int(wait / time.Millisecond),
		MaxDeltas:  max,
	})
	if err != nil {
		return nil, err
	}
	return deltaBatch(resp), nil
}
