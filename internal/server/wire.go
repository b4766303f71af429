// Package server is the network face of the engine: a TCP server hosting
// concurrent per-connection sessions over a length-prefixed framed
// protocol, built directly on Engine.Query/Prepare. In the paper's
// client/server split the wire ships kilobyte-scale models and query
// answers, never raw measurement tables — so the protocol is built around
// small frames: point answers, batched cursor pulls with client-driven
// flow control, and prepared-statement ids that amortize planning across
// a session's executions.
//
// Protocol. A connection opens with the client's hello: four magic bytes
// and a protocol-version byte. A server that reads anything else answers
// with one Response naming the mismatch and closes the connection. After
// the hello every message is one frame: a 4-byte big-endian payload length
// followed by one Request or Response in the internal/codec encoding, the
// one the WAL record and the table file use, every field in declaration
// order. Frames share no state, so a rejected frame cannot desync the
// session, and the length prefix lets a reader refuse an oversized payload
// before it allocates anything. Within a session, requests are processed
// in order; responses match request order.
//
// A query's row stream comes back as a cursor: the response to
// OpQuery/OpStmtQuery carries the first batch of rows plus a cursor id
// when more remain; the client pulls the rest with OpFetch, and
// OpCloseCursor releases a cursor early. A request's MaxRows sizes its
// batch (the client's flow control). With MaxRows 0 the server sizes it:
// the query's reply holds Config.FetchRows rows, so the first row comes as
// soon as before, and each later pull doubles, up to 16,384 rows; such a
// batch also ends at a 1 MiB byte budget, so a long drain ships in a few
// large frames. Every batch carries at least one row and stays under the
// frame cap: a row that would overrun it waits for the next batch, and a
// row too large for any frame fails its statement with a bad-request
// error naming its size, leaving the session usable. Server-side the
// cursor maps 1:1 onto the lazy *datalaws.Rows, so an abandoned cursor
// never materializes the rest of the result, and a client disconnect
// cancels the session context, which aborts every in-flight scan
// mid-batch.
//
// A frame's buffers grow with the bytes that arrive, not with the length
// a prefix declares, and a buffer grown past 2 MiB for one frame is
// dropped once that frame is handled.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/codec"
	"datalaws/internal/expr"
	"datalaws/internal/forms"
	"datalaws/internal/modelstore"
	"datalaws/internal/wireerr"
)

// Op enumerates request opcodes.
type Op uint8

// Request opcodes. Append-only: the opcode is protocol surface.
const (
	// OpQuery executes one SQL statement (the server's plan-LRU serves
	// repeated texts) and replies with the first row batch.
	OpQuery Op = iota + 1
	// OpPrepare parses SQL once server-side and replies with a statement id.
	OpPrepare
	// OpStmtQuery executes a prepared statement with bound arguments.
	OpStmtQuery
	// OpFetch pulls the next row batch from an open cursor.
	OpFetch
	// OpCloseCursor releases an open cursor before exhaustion.
	OpCloseCursor
	// OpCloseStmt releases a prepared statement id.
	OpCloseStmt
	// OpPing is a liveness no-op.
	OpPing
	// OpSubscribeModels starts model replication: the reply is a full
	// snapshot of the primary's captured models (as deltas) plus the feed
	// cursor the subscriber polls from.
	OpSubscribeModels
	// OpModelDelta long-polls the model changefeed from a cursor position,
	// replying with the deltas published since — or an empty batch after
	// WaitMillis with no change.
	OpModelDelta
	// OpTableInfo answers a strawman's shape question: the table named in
	// SQL replies with Columns = its schema and Rows = [[row count]].
	OpTableInfo
	// OpApproxPoint answers a strawman's point question from the model
	// named in SQL; Args are (group, level, inputs...), and the reply is one
	// (value, lo, hi) row plus Model/ModelVersion.
	OpApproxPoint
)

func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpPrepare:
		return "prepare"
	case OpStmtQuery:
		return "stmt-query"
	case OpFetch:
		return "fetch"
	case OpCloseCursor:
		return "close-cursor"
	case OpCloseStmt:
		return "close-stmt"
	case OpPing:
		return "ping"
	case OpSubscribeModels:
		return "subscribe-models"
	case OpModelDelta:
		return "model-delta"
	case OpTableInfo:
		return "table-info"
	case OpApproxPoint:
		return "approx-point"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request is one client frame.
type Request struct {
	Op Op
	// SQL is the statement text (OpQuery, OpPrepare).
	SQL string
	// Args bind `?` placeholders positionally (OpQuery, OpStmtQuery).
	Args []expr.Value
	// StmtID selects a prepared statement (OpStmtQuery, OpCloseStmt).
	StmtID uint64
	// CursorID selects an open cursor (OpFetch, OpCloseCursor).
	CursorID uint64
	// MaxRows caps the rows in the reply batch — the client-driven flow
	// control. 0 takes the server default.
	MaxRows int

	// FeedTerm/FeedSeq position an OpModelDelta poll on the changefeed
	// (the cursor returned by the previous subscribe or poll response).
	FeedTerm uint64
	FeedSeq  uint64
	// WaitMillis is how long an OpModelDelta poll may block waiting for
	// new deltas before replying empty. 0 returns immediately.
	WaitMillis int
	// MaxDeltas caps the deltas in one OpModelDelta reply. 0 takes the
	// server default.
	MaxDeltas int
}

// Response is one server frame.
type Response struct {
	// ErrCode/ErrMsg report a request failure (wireerr codes; empty on
	// success). A failed request never opens a cursor. They lead the
	// layout, so a peer of another protocol version can still read the
	// first two fields of a hello refusal.
	ErrCode string
	ErrMsg  string

	// StmtID and NumParams answer OpPrepare.
	StmtID    uint64
	NumParams int

	// CursorID is non-zero while the cursor remains open server-side
	// (more batches to fetch). Columns is set on the first batch.
	CursorID uint64
	Columns  []string
	Rows     [][]expr.Value
	// Done marks the stream exhausted; the server has already released
	// the cursor.
	Done bool

	// Info and the statement's datalaws.Report, set on the first response
	// of an execution.
	Info string
	datalaws.Report

	// Replication payload (OpSubscribeModels, OpModelDelta). Deltas carry
	// model parameters and table declarations, never rows; Increments carry
	// what the rows appended since the session's last reply add to the
	// domain states those models bind against; FeedTerm/FeedSeq is the
	// cursor to poll from next; Resync marks a reply that replaces the
	// subscriber's whole catalog rather than extending it (first subscribe,
	// or a poll whose cursor the primary could no longer serve
	// incrementally). Growth maps model name → fraction of unmodeled rows
	// appended since that model's fit, shipped on every reply so the
	// replica can widen its intervals for staleness it cannot observe.
	Deltas     []ModelDelta
	Increments []DomainIncrement
	FeedTerm   uint64
	FeedSeq    uint64
	Resync     bool
	Growth     map[string]float64

	// batch, when set, holds the reply's rows already in frame form, in
	// place of Rows (see pullBatch). It is the session's, and valid until
	// the session's next request.
	batch *rowBatch
}

// DomainIncrement is one domain state's increment on the wire, named by a
// shipped model that binds against the state (models with the same table,
// group column and inputs share one).
type DomainIncrement struct {
	Model string
	aqp.Increment
}

// DefaultMaxFrame bounds a single frame's payload. Row batches dominate
// frame size, and a server-sized batch stops at batchBytes, an eighth of
// it; the cap refuses attacker-sized length prefixes from the header.
const DefaultMaxFrame = 8 << 20

// DefaultFetchRows is the rows of a query's reply when the client sends
// MaxRows = 0. Each later pull of that cursor doubles it, up to
// maxFetchRows, so a short result answers in one small frame and a long
// drain ships in a few large ones.
const DefaultFetchRows = 256

// maxFetchRows caps the rows of one batch, whoever sized it.
const maxFetchRows = 16384

// batchBytes is the byte budget of a server-sized batch: it ends with the
// row that takes its encoding to this size, however many rows remain.
const batchBytes = 1 << 20

// keepBytes bounds the frame buffers a connection keeps between frames:
// a reader's, a writer's or a row batch's buffer that grew past it for one
// large frame is dropped once that frame is handled.
const keepBytes = 2 * batchBytes

// readChunk is the first allocation for a frame's payload. The buffer
// grows as the payload arrives rather than to the declared length, so a
// length prefix the peer never backs with bytes costs this much.
const readChunk = 512

// hello is what a client writes first on every connection: the magic, then
// the protocol version. The version counts layouts of Request and
// Response; a change to either is a new version.
var hello = [5]byte{'D', 'L', 'W', 'F', 1}

// readHello reads a connection's hello and checks that the peer speaks
// this protocol. An opening that is not the magic is read as a peer from
// before the hello would send it, a frame's length prefix: one over max is
// an errFrameTooBig, dropped like any oversized frame. Any other mismatch
// is an ErrBadRequest naming it, which the server sends back before it
// hangs up.
func readHello(r io.Reader, max int) error {
	var got [len(hello)]byte
	if _, err := io.ReadFull(r, got[:4]); err != nil {
		return err
	}
	if [4]byte(got[:4]) != [4]byte(hello[:4]) {
		n := binary.BigEndian.Uint32(got[:4])
		if int64(n) > int64(max) {
			return &errFrameTooBig{n: n, max: max}
		}
		return fmt.Errorf("server: %w: protocol mismatch: the connection opened with a frame of %d bytes, not the datalaws wire hello %q",
			wireerr.ErrBadRequest, n, hello[:4])
	}
	if _, err := io.ReadFull(r, got[4:]); err != nil {
		return err
	}
	if got[4] != hello[4] {
		return fmt.Errorf("server: %w: protocol mismatch: the client speaks wire version %d, this server version %d",
			wireerr.ErrBadRequest, got[4], hello[4])
	}
	return nil
}

// errFrameTooBig reports a frame whose declared length exceeds the cap.
type errFrameTooBig struct {
	n   uint32
	max int
}

func (e *errFrameTooBig) Error() string {
	return fmt.Sprintf("server: frame of %d bytes exceeds cap %d", e.n, e.max)
}

// message is a frame's payload: a Request or a Response, each with its one
// encode/decode pair.
type message interface {
	encode(e *codec.Encoder)
	decode(d *codec.Decoder)
}

// framer holds one goroutine's frame buffers, reused across frames: a
// Client's under its mutex, and on the server one for the session's reader
// and one for its handler. A decoded message copies what it keeps, so the
// buffers are free again once read or write returns; one past keepBytes
// is dropped then.
type framer struct {
	out codec.Encoder // the last frame written: length prefix, then payload
	hdr [4]byte       // the last length prefix read
	in  []byte        // the last payload read
	dec codec.Decoder
}

// write encodes m and writes it as one frame in one Write, refusing a
// payload over max before anything is written.
func (f *framer) write(w io.Writer, m message, max int) error {
	f.out = append(f.out[:0], 0, 0, 0, 0)
	m.encode(&f.out)
	n := len(f.out) - 4
	if n > max {
		return &errFrameTooBig{n: uint32(n), max: max}
	}
	binary.BigEndian.PutUint32(f.out, uint32(n))
	_, err := w.Write(f.out)
	f.out = trim(f.out)
	return err
}

// read reads one frame and decodes it into m, refusing a declared length
// over max from the 4-byte prefix alone, before the payload is read. The
// payload buffer grows from readChunk as bytes arrive, so what a frame
// allocates is bounded by the bytes it delivers, not by what it declares.
func (f *framer) read(r io.Reader, m message, limit int) error {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return err
	}
	declared := binary.BigEndian.Uint32(f.hdr[:])
	if int64(declared) > int64(limit) {
		return &errFrameTooBig{n: declared, max: limit}
	}
	n := int(declared)
	in := f.in[:0]
	for len(in) < n {
		if len(in) == cap(in) {
			in = slices.Grow(in, min(max(len(in), readChunk), n-len(in)))
		}
		k, err := io.ReadFull(r, in[len(in):min(cap(in), n)])
		in = in[:len(in)+k]
		if err != nil {
			f.in = trim(in)
			if err == io.EOF && len(in) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	f.dec = *codec.NewDecoder(in)
	m.decode(&f.dec)
	err := f.dec.End()
	f.in, f.dec = trim(in), codec.Decoder{}
	if err != nil {
		return fmt.Errorf("server: decode: %w", err)
	}
	return nil
}

// trim empties a frame buffer for reuse, or drops it once it has grown
// past keepBytes.
func trim[B ~[]byte](buf B) B {
	if cap(buf) > keepBytes {
		return nil
	}
	return buf[:0]
}

func (r *Request) encode(e *codec.Encoder) {
	e.Byte(byte(r.Op))
	e.Str(r.SQL)
	e.Uvarint(uint64(len(r.Args)))
	for _, v := range r.Args {
		forms.EncodeValue(e, v)
	}
	e.Uvarint(r.StmtID)
	e.Uvarint(r.CursorID)
	e.Varint(int64(r.MaxRows))
	e.Uvarint(r.FeedTerm)
	e.Uvarint(r.FeedSeq)
	e.Varint(int64(r.WaitMillis))
	e.Varint(int64(r.MaxDeltas))
}

func (r *Request) decode(d *codec.Decoder) {
	r.Op, r.SQL = Op(d.Byte()), d.Str()
	if n := d.Count(1); n > 0 {
		r.Args = make([]expr.Value, n)
		for i := range r.Args {
			forms.DecodeValue(d, &r.Args[i])
		}
	}
	r.StmtID, r.CursorID, r.MaxRows = d.Uvarint(), d.Uvarint(), int(d.Varint())
	r.FeedTerm, r.FeedSeq = d.Uvarint(), d.Uvarint()
	r.WaitMillis, r.MaxDeltas = int(d.Varint()), int(d.Varint())
}

func (r *Response) encode(e *codec.Encoder) {
	e.Str(r.ErrCode)
	e.Str(r.ErrMsg)
	e.Uvarint(r.StmtID)
	e.Varint(int64(r.NumParams))
	e.Uvarint(r.CursorID)
	e.Strs(r.Columns)
	if b := r.batch; b != nil {
		e.Uvarint(uint64(b.n))
		if b.n > 0 {
			e.Uvarint(uint64(b.width))
			*e = append(*e, b.enc...)
		}
	} else {
		e.Uvarint(uint64(len(r.Rows)))
		if len(r.Rows) > 0 {
			e.Uvarint(uint64(len(r.Rows[0])))
			for _, row := range r.Rows {
				for _, v := range row {
					forms.EncodeValue(e, v)
				}
			}
		}
	}
	e.Bool(r.Done)
	e.Str(r.Info)
	rep := &r.Report
	e.Str(rep.Model)
	e.Varint(int64(rep.ModelVersion))
	e.Varint(int64(rep.ApproxGrid))
	e.Bool(rep.Hybrid)
	e.Float(rep.SEInflation)
	e.Bool(rep.ExactFallback)
	e.Varint(int64(rep.Partitions))
	e.Varint(int64(rep.PartitionsPruned))
	e.Uvarint(uint64(len(r.Deltas)))
	for i := range r.Deltas {
		r.Deltas[i].encode(e)
	}
	encodeIncrements(e, r.Increments)
	e.Uvarint(r.FeedTerm)
	e.Uvarint(r.FeedSeq)
	e.Bool(r.Resync)
	e.FloatMap(r.Growth)
}

func (r *Response) decode(d *codec.Decoder) {
	r.ErrCode, r.ErrMsg = d.Str(), d.Str()
	r.StmtID, r.NumParams = d.Uvarint(), int(d.Varint())
	r.CursorID, r.Columns = d.Uvarint(), d.Strs()
	// One backing array holds the batch's values. A row takes at least one
	// byte per value, so n rows of width values fit the rest of the frame;
	// a zero-width row is bounded as if it took one byte.
	if n := d.Count(1); n > 0 {
		width := d.Count(n)
		vals := make([]expr.Value, n*width)
		for i := range vals {
			forms.DecodeValue(d, &vals[i])
		}
		r.Rows = make([][]expr.Value, n)
		for i := range r.Rows {
			r.Rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
		}
	}
	r.Done, r.Info = d.Bool(), d.Str()
	rep := &r.Report
	rep.Model, rep.ModelVersion, rep.ApproxGrid = d.Str(), int(d.Varint()), int(d.Varint())
	rep.Hybrid, rep.SEInflation, rep.ExactFallback = d.Bool(), d.Float(), d.Bool()
	rep.Partitions, rep.PartitionsPruned = int(d.Varint()), int(d.Varint())
	if n := d.Count(4); n > 0 { // kind, name, and two presence bytes
		r.Deltas = make([]ModelDelta, n)
		for i := range r.Deltas {
			r.Deltas[i].decode(d)
		}
	}
	r.Increments = decodeIncrements(d)
	r.FeedTerm, r.FeedSeq = d.Uvarint(), d.Uvarint()
	r.Resync, r.Growth = d.Bool(), d.FloatMap()
}

// rowCount returns how many rows the reply carries.
func (r *Response) rowCount() int {
	if r.batch != nil {
		return r.batch.n
	}
	return len(r.Rows)
}

// rowBatch is a reply's rows in frame form: pullBatch encodes each row as
// the cursor yields it, so no row is copied out of the cursor's buffer.
// Every row of a batch has width values.
type rowBatch struct {
	n, width int
	enc      codec.Encoder
}

func (b *rowBatch) reset() { b.n, b.width, b.enc = 0, 0, trim(b.enc) }

// add encodes row into the batch, reporting false for a row whose width is
// not the batch's.
func (b *rowBatch) add(row []expr.Value) bool {
	if b.n == 0 {
		b.width = len(row)
	} else if len(row) != b.width {
		return false
	}
	b.n++
	for _, v := range row {
		forms.EncodeValue(&b.enc, v)
	}
	return true
}

func (m *ModelDelta) encode(e *codec.Encoder) {
	e.Byte(byte(m.Kind))
	e.Str(m.Name)
	e.Bool(m.Model != nil)
	if r := m.Model; r != nil {
		e.Varint(int64(r.ID))
		forms.EncodeSpec(e, r)
		e.Uvarint(uint64(len(r.Groups)))
		for i := range r.Groups {
			g := &r.Groups[i]
			e.Varint(g.Key)
			encodeFloats(e, g.Params)
			e.Float(g.ResidualSE)
			e.Float(g.R2)
			e.Varint(int64(g.N))
			e.Varint(int64(g.DF))
			e.Varint(int64(g.Iters))
			e.Str(g.Retained)
			e.Uvarint(uint64(len(g.Cov)))
			for _, row := range g.Cov {
				encodeFloats(e, row)
			}
			e.Str(g.FitErr)
		}
		e.Varint(int64(r.FittedRows))
		e.Varint(int64(r.Version))
	}
	e.Bool(m.Table != nil)
	if m.Table != nil {
		forms.EncodeDecl(e, m.Table)
	}
}

func (m *ModelDelta) decode(d *codec.Decoder) {
	m.Kind, m.Name = modelstore.ChangeKind(d.Byte()), d.Str()
	if d.Bool() {
		r := &modelstore.ModelRecord{ID: int(d.Varint())}
		forms.DecodeSpec(d, r)
		// A group takes at least its key, the Params, N, DF, Iters,
		// Retained, Cov and FitErr bytes and two floats.
		if n := d.Count(24); n > 0 {
			r.Groups = make([]modelstore.GroupRecord, n)
		}
		for i := range r.Groups {
			g := &r.Groups[i]
			g.Key, g.Params, g.ResidualSE, g.R2 = d.Varint(), decodeFloats(d), d.Float(), d.Float()
			g.N, g.DF, g.Iters, g.Retained = int(d.Varint()), int(d.Varint()), int(d.Varint()), d.Str()
			if n := d.Count(1); n > 0 {
				g.Cov = make([][]float64, n)
				for j := range g.Cov {
					g.Cov[j] = decodeFloats(d)
				}
			}
			g.FitErr = d.Str()
		}
		r.FittedRows, r.Version = int(d.Varint()), int(d.Varint())
		m.Model = r
	}
	if d.Bool() {
		m.Table = forms.DecodeDecl(d)
	}
}

// encodeIncrements appends a reply's increments: a count, then each one's
// fields in declaration order.
func encodeIncrements(e *codec.Encoder, incs []DomainIncrement) {
	e.Uvarint(uint64(len(incs)))
	for i := range incs {
		inc := &incs[i]
		e.Str(inc.Model)
		e.Varint(int64(inc.From))
		e.Varint(int64(inc.To))
		e.Uvarint(uint64(len(inc.Values)))
		for _, vs := range inc.Values {
			encodeFloats(e, vs)
		}
		e.Uvarint(uint64(len(inc.Bad)))
		for _, b := range inc.Bad {
			e.Bool(b)
		}
		e.Uvarint(uint64(len(inc.Groups)))
		for _, g := range inc.Groups {
			e.Varint(g)
		}
		encodeFloats(e, inc.Inputs)
		e.Varint(int64(inc.Width))
		e.Str(inc.Err)
	}
}

// decodeIncrements reads what encodeIncrements wrote. It checks only that
// the bytes parse; whether an increment fits the state it extends is
// aqp.Cache.Apply's to check.
func decodeIncrements(d *codec.Decoder) []DomainIncrement {
	n := d.Count(9) // a byte for each of the nine fields
	if n == 0 {
		return nil
	}
	incs := make([]DomainIncrement, n)
	for i := range incs {
		inc := &incs[i]
		inc.Model, inc.From, inc.To = d.Str(), int(d.Varint()), int(d.Varint())
		if n := d.Count(1); n > 0 {
			inc.Values = make([][]float64, n)
			for j := range inc.Values {
				inc.Values[j] = decodeFloats(d)
			}
		}
		if n := d.Count(1); n > 0 {
			inc.Bad = make([]bool, n)
			for j := range inc.Bad {
				inc.Bad[j] = d.Bool()
			}
		}
		if n := d.Count(1); n > 0 {
			inc.Groups = make([]int64, n)
			for j := range inc.Groups {
				inc.Groups[j] = d.Varint()
			}
		}
		inc.Inputs, inc.Width, inc.Err = decodeFloats(d), int(d.Varint()), d.Str()
	}
	return incs
}

func encodeFloats(e *codec.Encoder, fs []float64) {
	e.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		e.Float(f)
	}
}

// decodeFloats reads what encodeFloats wrote; an empty list is nil.
func decodeFloats(d *codec.Decoder) []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = d.Float()
	}
	return fs
}
