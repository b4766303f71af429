package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/wireerr"
)

// Config tunes a Server. The zero value takes defaults.
type Config struct {
	// MaxFrame caps a single frame's payload bytes (default
	// DefaultMaxFrame). Oversized frames drop the connection before any
	// payload allocation.
	MaxFrame int
	// FetchRows is the rows of a query's first reply when the client
	// sends MaxRows = 0 (default DefaultFetchRows); each later pull of the
	// cursor doubles it, up to 16,384 rows and a 1 MiB batch.
	FetchRows int
	// Logf sinks server diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := Config{MaxFrame: DefaultMaxFrame, FetchRows: DefaultFetchRows, Logf: log.Printf}
	if c == nil {
		return out
	}
	if c.MaxFrame > 0 {
		out.MaxFrame = c.MaxFrame
	}
	if c.FetchRows > 0 {
		out.FetchRows = c.FetchRows
	}
	if c.Logf != nil {
		out.Logf = c.Logf
	}
	return out
}

// Server hosts concurrent sessions over the framed protocol, one session
// per TCP connection, all sharing one Engine (whose catalog, model store
// and plan cache are already internally synchronized — including the plan
// LRU that serves repeated unprepared texts across every session).
type Server struct {
	eng     *datalaws.Engine
	cfg     Config
	metrics *Metrics
	done    chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	draining bool
	closed   bool
}

// New builds a server over an engine. Call Serve (or ServeListener) to
// start accepting.
func New(eng *datalaws.Engine, cfg *Config) *Server {
	return &Server{
		eng:      eng,
		cfg:      cfg.withDefaults(),
		metrics:  NewMetrics(),
		done:     make(chan struct{}),
		sessions: map[*session]struct{}{},
	}
}

// Metrics exposes the server's counters (mount Metrics().Handler() on an
// HTTP mux for the scrape endpoint).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Serve listens on addr ("127.0.0.1:0" for an ephemeral port) and starts
// the accept loop.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	return s.ServeListener(ln)
}

// ServeListener starts the accept loop on an existing listener, which the
// server then owns.
func (s *Server) ServeListener(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = ln.Close()
		return errors.New("server: already shut down")
	}
	if s.ln != nil {
		_ = ln.Close()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr reports the bound listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ActiveSessions reports the live session count.
func (s *Server) ActiveSessions() int { return int(s.metrics.ActiveSessions()) }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// temporaryAcceptErr reports whether an Accept failure is worth retrying:
// timeouts, aborted handshakes and descriptor exhaustion (which clears as
// connections close) recover on their own and deserve a backoff-retry;
// anything else means the listener is gone for good.
func temporaryAcceptErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.ENOMEM)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	backoff := time.Duration(0)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if !temporaryAcceptErr(err) {
				s.cfg.Logf("server: accept failed permanently, stopping listener loop: %v", err)
				return
			}
			if backoff == 0 {
				s.cfg.Logf("server: temporary accept error (backing off): %v", err)
				backoff = 5 * time.Millisecond
			} else if backoff < 200*time.Millisecond {
				backoff *= 2
			}
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// session is one connection's state: its prepared statements, its open
// cursors, and the context that cancels every in-flight execution the
// moment the client disconnects. The stmts/cursors maps are touched only
// by the handler goroutine; openCursors is atomic because drain reads it
// from outside.
type session struct {
	srv    *Server
	conn   net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	stmts      map[uint64]*datalaws.Stmt
	cursors    map[uint64]*cursor
	nextStmt   uint64
	nextCursor uint64

	openCursors atomic.Int64

	// The handler goroutine's frame buffer and the row batch pullBatch
	// encodes into; the reader goroutine keeps its own frame buffer.
	out   framer
	batch rowBatch

	// What this session shipped on the model changefeed: the models, and
	// the domain states the replica holds.
	shipped map[string]*modelstore.CapturedModel
	feed    aqp.Feed
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{
		srv:     s,
		conn:    conn,
		ctx:     ctx,
		cancel:  cancel,
		stmts:   map[uint64]*datalaws.Stmt{},
		cursors: map[uint64]*cursor{},
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		_ = conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.metrics.SessionOpened()
	defer func() {
		cancel()
		sess.teardown()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.metrics.SessionClosed()
	}()

	// The reader goroutine is the disconnect watchdog: it blocks on the
	// socket while the handler executes, so a client that vanishes
	// mid-query fails the read immediately and the cancel propagates —
	// via exec.BindContext — into every operator the session is running.
	// A peer that opens with anything but this protocol's hello is
	// refused (see readHello), and the connection closes.
	reqs := make(chan *Request, 4)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(reqs)
		var in framer
		if err := readHello(conn, s.cfg.MaxFrame); err != nil {
			if errors.Is(err, wireerr.ErrBadRequest) {
				s.cfg.Logf("server: refused %s: %v", conn.RemoteAddr(), err)
				refuse(conn, &in, err, s.cfg.MaxFrame)
			}
			cancel()
			return
		}
		for {
			req := new(Request)
			if err := in.read(conn, req, s.cfg.MaxFrame); err != nil {
				cancel()
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()

	for req := range reqs {
		if err := sess.reply(sess.handle(req)); err != nil {
			break
		}
		if s.isDraining() && sess.openCursors.Load() == 0 {
			// Drain: this session's in-flight cursors are finished;
			// closing the connection lets Shutdown complete.
			break
		}
	}
	cancel()
	_ = conn.Close()
	// Unblock the reader if it is parked on a channel send, then wait for
	// it to observe the closed connection.
	for range reqs {
	}
}

// reply writes resp as one frame. A reply over the frame cap writes
// nothing, so the request fails instead and the session goes on:
// pullBatch keeps rows within the cap, and this is a reply whose other
// fields outgrew the room it leaves them.
func (sess *session) reply(resp *Response) error {
	limit := sess.srv.cfg.MaxFrame
	err := sess.out.write(sess.conn, resp, limit)
	sess.batch.reset()
	if err == nil {
		return nil
	}
	var big *errFrameTooBig // declared here: its address escapes
	if !errors.As(err, &big) {
		return err
	}
	sess.closeCursor(resp.CursorID)
	return sess.out.write(sess.conn, errResponse(fmt.Errorf("server: %w: a reply of %d bytes exceeds the frame cap of %d bytes",
		wireerr.ErrBadRequest, big.n, big.max)), limit)
}

// refuse answers a peer that does not speak this protocol with err, and
// then closes its side and reads until the peer closes too, for at most a
// second, so the refusal is not lost to a reset: closing a socket with
// unread input resets the connection.
func refuse(conn net.Conn, f *framer, err error, max int) {
	if f.write(conn, errResponse(err), max) != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite() // a failure leaves the full close to do it
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = io.Copy(io.Discard, conn) // ends at the peer's close, the deadline or the session's
}

// teardown releases every cursor the session still holds; their lazy Rows
// close their operator trees, freeing scans mid-stream.
func (sess *session) teardown() {
	for id := range sess.cursors {
		sess.closeCursor(id)
	}
}

// kickIfIdle force-closes the session's connection when it holds no open
// cursors; used at drain start so idle sessions don't hold shutdown
// hostage. Sessions mid-cursor are left to finish.
func (sess *session) kickIfIdle() {
	if sess.openCursors.Load() == 0 {
		_ = sess.conn.Close()
	}
}

func errResponse(err error) *Response {
	return &Response{ErrCode: wireerr.Code(err), ErrMsg: err.Error(), Done: true}
}

func (sess *session) handle(req *Request) *Response {
	switch req.Op {
	case OpPrepare, OpQuery, OpStmtQuery, OpSubscribeModels, OpTableInfo, OpApproxPoint:
		// The drain gate: no new work once Shutdown starts. Fetches of open
		// cursors, closes and pings still run, so in-flight work finishes.
		if sess.srv.isDraining() {
			return errResponse(fmt.Errorf("server: %w", wireerr.ErrDraining))
		}
	}
	switch req.Op {
	case OpPing:
		return &Response{Done: true}
	case OpPrepare:
		st, err := sess.srv.eng.Prepare(req.SQL)
		if err != nil {
			return errResponse(err)
		}
		sess.nextStmt++
		sess.stmts[sess.nextStmt] = st
		return &Response{StmtID: sess.nextStmt, NumParams: st.NumParams(), Done: true}
	case OpQuery, OpStmtQuery:
		return sess.handleQuery(req)
	case OpFetch:
		c, ok := sess.cursors[req.CursorID]
		if !ok {
			return errResponse(fmt.Errorf("server: %w: unknown cursor %d", wireerr.ErrBadRequest, req.CursorID))
		}
		resp := sess.pullBatch(c, req.MaxRows)
		if resp.Done {
			sess.releaseCursor(req.CursorID)
		} else {
			resp.CursorID = req.CursorID
		}
		sess.srv.metrics.RecordFetch(resp.rowCount(), wireerr.Rehydrate(resp.ErrCode, resp.ErrMsg))
		return resp
	case OpCloseCursor:
		sess.closeCursor(req.CursorID)
		return &Response{Done: true}
	case OpCloseStmt:
		delete(sess.stmts, req.StmtID)
		return &Response{Done: true}
	case OpSubscribeModels:
		return sess.handleSubscribe()
	case OpModelDelta:
		return sess.handleModelDelta(req)
	case OpTableInfo:
		return sess.handleTableInfo(req)
	case OpApproxPoint:
		return sess.handleApproxPoint(req)
	}
	return errResponse(fmt.Errorf("server: %w: unknown opcode %d", wireerr.ErrBadRequest, uint8(req.Op)))
}

// releaseCursor forgets a cursor whose Rows has closed itself.
func (sess *session) releaseCursor(id uint64) {
	delete(sess.cursors, id)
	sess.openCursors.Add(-1)
	sess.srv.metrics.CursorClosed()
}

// closeCursor closes and forgets a cursor, if the session holds it.
func (sess *session) closeCursor(id uint64) {
	if c, ok := sess.cursors[id]; ok {
		_ = c.rows.Close()
		sess.releaseCursor(id)
	}
}

func (sess *session) handleQuery(req *Request) *Response {
	start := time.Now()
	var rows *datalaws.Rows
	var err error
	switch req.Op {
	case OpQuery:
		rows, err = sess.srv.eng.Query(sess.ctx, req.SQL, valuesToArgs(req.Args)...)
	default: // OpStmtQuery
		st, ok := sess.stmts[req.StmtID]
		if !ok {
			return errResponse(fmt.Errorf("server: %w: unknown statement %d", wireerr.ErrBadRequest, req.StmtID))
		}
		rows, err = st.Query(sess.ctx, valuesToArgs(req.Args)...)
	}
	if err != nil {
		sess.srv.metrics.RecordQuery(RouteOther, time.Since(start), err)
		return errResponse(err)
	}
	c := cursor{rows: rows, next: sess.srv.cfg.FetchRows}
	resp := sess.pullBatch(&c, req.MaxRows)
	resp.Columns = rows.Columns()
	resp.Info = rows.Info
	resp.Report = rows.Report
	sess.srv.metrics.RecordQuery(routeOf(rows), time.Since(start), wireerr.Rehydrate(resp.ErrCode, resp.ErrMsg))
	sess.srv.metrics.RecordRows(resp.rowCount())
	if !resp.Done {
		sess.nextCursor++
		open := c // only a cursor that stays open moves to the heap
		sess.cursors[sess.nextCursor] = &open
		sess.openCursors.Add(1)
		sess.srv.metrics.CursorOpened()
		resp.CursorID = sess.nextCursor
	}
	return resp
}

// cursor is a query's open result stream: the engine's lazy Rows, the
// rows the cursor's next server-sized batch holds, and a row the last
// batch took from Rows but had no room for.
type cursor struct {
	rows *datalaws.Rows
	next int
	held exec.Row
}

// pullBatch advances c by up to maxRows rows, the client's flow control.
// With maxRows 0 the server sizes the batch: c.next rows, doubling on each
// such pull up to maxFetchRows, and ending early at batchBytes. Each row
// is encoded into the session's batch as the cursor yields it. A row that
// would take the frame past the cap, less a sixteenth kept for the reply's
// other fields, waits for the next batch, so a batch always carries one
// row; a row that does not fit alone fails the statement. When the stream
// ends — exhaustion or error — the underlying Rows has closed itself and
// Done is set.
func (sess *session) pullBatch(c *cursor, maxRows int) *Response {
	room := sess.srv.cfg.MaxFrame - sess.srv.cfg.MaxFrame/16
	n, budget := maxRows, room
	if n <= 0 {
		n, budget = c.next, min(batchBytes, room)
		c.next = min(2*c.next, maxFetchRows)
	}
	n = min(n, maxFetchRows)
	b := &sess.batch
	b.reset()
	resp := &Response{batch: b}
	for b.n < n && len(b.enc) < budget {
		row := c.held
		c.held = nil
		if row == nil {
			if !c.rows.Next() {
				resp.Done = true
				if err := c.rows.Err(); err != nil {
					resp.ErrCode, resp.ErrMsg = wireerr.Code(err), err.Error()
				}
				break
			}
			row = c.rows.Row()
		}
		mark := len(b.enc)
		if !b.add(row) {
			_ = c.rows.Close()
			return errResponse(fmt.Errorf("server: a result row of %d values after rows of %d", len(row), b.width))
		}
		if len(b.enc) <= room {
			continue
		}
		if b.n == 1 {
			_ = c.rows.Close()
			return errResponse(fmt.Errorf("server: %w: a result row of %d bytes exceeds the frame cap of %d bytes",
				wireerr.ErrBadRequest, len(b.enc), sess.srv.cfg.MaxFrame))
		}
		c.held = append(exec.Row(nil), row...)
		b.n, b.enc = b.n-1, b.enc[:mark]
		break
	}
	return resp
}

// routeOf classifies how a statement was answered, for the
// approx-vs-exact route counters.
func routeOf(rows *datalaws.Rows) Route {
	switch {
	case rows.Model != "":
		return RouteApprox
	case rows.ExactFallback:
		return RouteFallback
	case len(rows.Columns()) > 0:
		return RouteExact
	default:
		return RouteOther
	}
}

// valuesToArgs lifts wire values into Query arguments (the engine's
// binder accepts expr.Value directly).
func valuesToArgs(vals []expr.Value) []any {
	if len(vals) == 0 {
		return nil
	}
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

// Shutdown drains the server gracefully: stop accepting, reject new
// statements with wireerr.CodeDraining, close idle sessions immediately,
// let sessions with in-flight cursors finish streaming, and force-close
// whatever remains when ctx expires (returning ctx.Err()). The engine is
// not closed — that is the caller's decision, after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	if !alreadyDraining {
		close(s.done)
	}
	if ln != nil {
		_ = ln.Close()
	}
	for _, sess := range sessions {
		sess.kickIfIdle()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.forceCloseSessions()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

// Close shuts the server down immediately: no drain, every connection
// force-closed. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if !alreadyDraining {
		close(s.done)
	}
	if ln != nil {
		_ = ln.Close()
	}
	s.forceCloseSessions()
	s.wg.Wait()
	return nil
}

func (s *Server) forceCloseSessions() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.cancel()
		_ = sess.conn.Close()
	}
}
