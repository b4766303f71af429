package table

import (
	"bytes"
	"fmt"
	"io"

	"datalaws/internal/codec"
	"datalaws/internal/storage"
)

// Binary table format, version 2 (chunked):
//
//	magic "DLTB2" | uvarint(len name) name | uvarint chunkRows | uvarint ncols |
//	  per column: uvarint(len name) name | type byte
//	uvarint nsealed |
//	  per sealed chunk: uvarint rows | per column: uvarint(len frame) frame
//	uvarint tailRows | per column (when tailRows > 0): uvarint(len frame) frame
//
// Sealed chunk frames are written verbatim — a checkpoint never decodes cold
// chunks — and the hot tail is encoded separately. Zone maps are not
// serialized: the load-time validation pass decodes each chunk once anyway,
// and recomputing zones there makes corrupt-zone unsound pruning impossible.
// The file ends after the tail: trailing bytes make it corrupt. The earlier
// whole-column format, "DLTB1", is refused by name.

var tableMagic = []byte("DLTB2")

// WriteBinary serializes the table to w, one write per sealed chunk. The
// chunk list and tail are captured under one read-lock acquisition
// (Chunks): serializing without it races concurrent appends — reallocated
// slice headers, and columns captured at different lengths, which
// ReadBinary would reject as corrupt. Sealed chunks copy their encoded
// frames verbatim; only the tail is encoded here.
func WriteBinary(t *Table, w io.Writer) error {
	v := t.Chunks()
	defs := t.Schema().Cols
	e := codec.Encoder(bytes.Clone(tableMagic))
	e.Str(t.Name)
	e.Uvarint(uint64(t.chunkRows))
	e.Uvarint(uint64(len(defs)))
	for _, def := range defs {
		e.Str(def.Name)
		e.Byte(byte(def.Type))
	}
	e.Uvarint(uint64(len(v.sealed)))
	for _, ch := range v.sealed {
		e.Uvarint(uint64(ch.rows))
		for _, frame := range ch.frames {
			e.Bytes(frame)
		}
		if _, err := w.Write(e); err != nil {
			return err
		}
		e = e[:0]
	}
	e.Uvarint(uint64(v.tailRows))
	if v.tailRows > 0 {
		for _, col := range v.tail {
			e.Bytes(storage.EncodeColumn(col))
		}
	}
	_, err := w.Write(e)
	return err
}

// ReadBinary deserializes a table file written by WriteBinary; b is the
// whole file, and the table keeps no reference to it. Every sealed chunk is
// decoded once to validate its frames and recompute zone maps and size
// accounting; the decoded columns are then dropped, so load memory is the
// file, its sealed frames and one decoded chunk, not the decoded table.
func ReadBinary(b []byte) (*Table, error) {
	rest, ok := bytes.CutPrefix(b, tableMagic)
	if !ok {
		if bytes.HasPrefix(b, []byte("DLTB1")) {
			return nil, fmt.Errorf("table: DLTB1 is a retired table format; re-save it with an older build")
		}
		return nil, fmt.Errorf("table: bad magic %q", b[:min(len(b), len(tableMagic))])
	}
	d := codec.NewDecoder(rest)
	name, chunkRows := d.Str(), d.Uvarint()
	defs := make([]ColumnDef, d.Count(2))
	for i := range defs {
		defs[i] = ColumnDef{Name: d.Str(), Type: storage.ColType(d.Byte())}
	}
	// A sealed chunk takes at least a row count and a length per frame.
	sealed := make([]*Chunk, d.Count(1+len(defs)))
	for i := range sealed {
		ch := &Chunk{rows: int(d.Uvarint()), frames: make([][]byte, len(defs))}
		for j := range ch.frames {
			ch.frames[j] = bytes.Clone(d.Bytes())
		}
		sealed[i] = ch
	}
	tailRows := d.Uvarint()
	var tail [][]byte
	if tailRows > 0 {
		tail = make([][]byte, len(defs))
		for i := range tail {
			tail[i] = d.Bytes()
		}
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}

	if len(defs) == 0 || chunkRows == 0 || chunkRows > 1<<31 || tailRows > chunkRows {
		return nil, fmt.Errorf("table: implausible shape: %d columns, chunks of %d rows, a tail of %d", len(defs), chunkRows, tailRows)
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t := New(name, schema)
	t.chunkRows = int(chunkRows)
	for c, ch := range sealed {
		if err := t.loadSealed(ch); err != nil {
			return nil, fmt.Errorf("table: chunk %d: %w", c, err)
		}
	}
	for i, frame := range tail {
		col, err := storage.DecodeColumn(frame)
		if err == nil && (col.Type() != defs[i].Type || col.Len() != int(tailRows)) {
			err = fmt.Errorf("%v with %d rows, want %v with %d", col.Type(), col.Len(), defs[i].Type, tailRows)
		}
		if err != nil {
			return nil, fmt.Errorf("table: tail column %q: %w", defs[i].Name, err)
		}
		t.tail[i] = col
	}
	t.tailRows = int(tailRows)
	if t.tailRows >= t.chunkRows {
		t.sealTailLocked()
	}
	t.version = uint64(t.sealedRows + t.tailRows)
	return t, nil
}

// loadSealed validates a sealed chunk read from a file by decoding it once,
// recomputes its zones and size accounting from the decoded columns, and
// appends it to t.
func (t *Table) loadSealed(ch *Chunk) error {
	if ch.rows <= 0 || ch.rows > t.chunkRows {
		return fmt.Errorf("implausible row count %d", ch.rows)
	}
	cols, err := ch.decode()
	if err != nil {
		return err
	}
	ch.zones = make([]ZoneMap, len(cols))
	for i, col := range cols {
		if def := t.schema.Cols[i]; col.Type() != def.Type {
			return fmt.Errorf("column %q is %v, schema says %v", def.Name, col.Type(), def.Type)
		}
		ch.zones[i] = zoneOf(col, ch.rows)
		ch.raw += colRawBytes(col, ch.rows)
		ch.encoded += len(ch.frames[i])
	}
	t.sealed = append(t.sealed, ch)
	t.sealedRows += ch.rows
	return nil
}
