// Package server is the network face of the engine: a TCP server hosting
// concurrent per-connection sessions over a length-prefixed framed
// protocol, built directly on Engine.Query/Prepare. In the paper's
// client/server split the wire ships kilobyte-scale models and query
// answers, never raw measurement tables — so the protocol is built around
// small frames: point answers, batched cursor pulls with client-driven
// flow control, and prepared-statement ids that amortize planning across
// a session's executions.
//
// Protocol. Every message is one frame: a 4-byte big-endian payload
// length followed by a gob-encoded Request or Response. Each frame is an
// independent gob stream (its own type preamble), so a rejected or
// garbled frame cannot desync the session the way a shared stateful
// stream would, and the length prefix lets the server refuse oversized
// payloads before decoding allocates anything. Within a session,
// requests are processed in order; responses match request order.
//
// A query's row stream comes back as a cursor: the response to
// OpQuery/OpStmtQuery carries the first batch of rows plus a cursor id
// when more remain; the client pulls the rest with OpFetch (each pull
// capped by the client's MaxRows — the flow control), and OpCloseCursor
// releases a cursor early. Server-side the cursor maps 1:1 onto the lazy
// *datalaws.Rows, so an abandoned cursor never materializes the rest of
// the result, and a client disconnect cancels the session context, which
// aborts every in-flight scan mid-batch.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/expr"
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
	// success). A failed request never opens a cursor.
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
	// of an execution. The report travels as flat fields, written by
	// setReport and read by report: every frame re-sends its gob type
	// tree, and a nested struct would add its own to each one.
	Info             string
	Model            string
	ModelVersion     int
	ApproxGrid       int
	SEInflation      float64
	ExactFallback    bool
	Hybrid           bool
	Partitions       int
	PartitionsPruned int

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
	Increments []byte // a gob of []DomainIncrement: see encodeIncrements
	FeedTerm   uint64
	FeedSeq    uint64
	Resync     bool
	Growth     map[string]float64
}

func (r *Response) setReport(rep datalaws.Report) {
	r.Model, r.ModelVersion, r.ApproxGrid, r.Hybrid = rep.Model, rep.ModelVersion, rep.ApproxGrid, rep.Hybrid
	r.SEInflation, r.ExactFallback = rep.SEInflation, rep.ExactFallback
	r.Partitions, r.PartitionsPruned = rep.Partitions, rep.PartitionsPruned
}

func (r *Response) report() datalaws.Report {
	return datalaws.Report{Model: r.Model, ModelVersion: r.ModelVersion, ApproxGrid: r.ApproxGrid, Hybrid: r.Hybrid,
		SEInflation: r.SEInflation, ExactFallback: r.ExactFallback, Partitions: r.Partitions, PartitionsPruned: r.PartitionsPruned}
}

// DefaultMaxFrame bounds a single frame's payload. Row batches dominate
// frame size; 8MB comfortably fits the default batch of wide rows while
// refusing attacker-sized length prefixes before any allocation.
const DefaultMaxFrame = 8 << 20

// DefaultFetchRows is the server's batch size when the client sends
// MaxRows = 0.
const DefaultFetchRows = 256

// maxFetchRows caps what a client may request per pull, bounding the
// server-side batch buffer regardless of client behavior.
const maxFetchRows = 16384

// errFrameTooBig reports a frame whose declared length exceeds the cap.
type errFrameTooBig struct {
	n   uint32
	max int
}

func (e *errFrameTooBig) Error() string {
	return fmt.Sprintf("server: frame of %d bytes exceeds cap %d", e.n, e.max)
}

// writeMsg gob-encodes v and writes it as one length-prefixed frame.
// Each frame is a self-contained gob stream (see package comment).
func writeMsg(w io.Writer, v any, max int) error {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("server: encode: %w", err)
	}
	payload := buf.Len() - 4
	if payload > max {
		return &errFrameTooBig{n: uint32(payload), max: max}
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(payload))
	_, err := w.Write(b)
	return err
}

// readMsg reads one frame and gob-decodes it into v, rejecting frames
// larger than max before allocating the payload.
func readMsg(r io.Reader, v any, max int) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return &errFrameTooBig{n: n, max: max}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("server: decode: %w", err)
	}
	return nil
}

// DomainIncrement is one domain state's increment on the wire, named by a
// shipped model that binds against the state (models with the same table,
// group column and inputs share one).
type DomainIncrement struct {
	Model string
	aqp.Increment
}

// encodeIncrements gob-encodes a reply's increments as a stream of their
// own, nil when there are none. Every frame re-sends the gob type preamble
// of Response, so frames of other replies pay for one []byte field, not for
// the increment's types.
func encodeIncrements(incs []DomainIncrement) ([]byte, error) {
	if len(incs) == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(incs); err != nil {
		return nil, fmt.Errorf("server: encode increments: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeIncrements parses what encodeIncrements wrote. It checks only that
// the bytes parse; whether an increment fits the state it extends is
// aqp.Cache.Apply's to check.
func decodeIncrements(b []byte) (incs []DomainIncrement, err error) {
	if len(b) > 0 {
		if err = gob.NewDecoder(bytes.NewReader(b)).Decode(&incs); err != nil {
			return nil, fmt.Errorf("server: decode increments: %w", err)
		}
	}
	return incs, nil
}
