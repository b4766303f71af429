package table

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// Binary table format, version 2 (chunked):
//
//	magic "DLTB2" | uvarint(len name) name | uvarint chunkRows | uvarint ncols |
//	  per column: uvarint(len name) name | type byte
//	uvarint nsealed |
//	  per sealed chunk: uvarint rows | per column: uvarint(len frame) frame
//	uvarint tailRows | per column: uvarint(len frame) frame
//
// Sealed chunk frames are written verbatim — a checkpoint never decodes cold
// chunks — and the hot tail is encoded separately. Zone maps are not
// serialized: the load-time validation pass decodes each chunk once anyway,
// and recomputing zones there makes corrupt-zone unsound pruning impossible.
//
// Version 1 ("DLTB1": name | ncols | per-column name+frame, one frame per
// whole column) is still read; loading re-seals it under the current chunk
// budget.

var (
	tableMagic   = []byte("DLTB2")
	tableMagicV1 = []byte("DLTB1")
)

// WriteBinary serializes the table to w. The chunk list and tail are
// captured under one read-lock acquisition (Chunks): serializing without it
// races concurrent appends — reallocated slice headers, and columns captured
// at different lengths, which ReadBinary would reject as corrupt. Sealed
// chunks stream their encoded frames verbatim; only the tail is encoded
// here.
func WriteBinary(t *Table, w io.Writer) error {
	v := t.Chunks()
	if _, err := w.Write(tableMagic); err != nil {
		return err
	}
	if err := writeBytes(w, []byte(t.Name)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(t.chunkRows)); err != nil {
		return err
	}
	defs := t.Schema().Cols
	if err := writeUvarint(w, uint64(len(defs))); err != nil {
		return err
	}
	for _, def := range defs {
		if err := writeBytes(w, []byte(def.Name)); err != nil {
			return err
		}
		if _, err := w.Write([]byte{byte(def.Type)}); err != nil {
			return err
		}
	}
	if err := writeUvarint(w, uint64(len(v.sealed))); err != nil {
		return err
	}
	for _, ch := range v.sealed {
		if err := writeUvarint(w, uint64(ch.rows)); err != nil {
			return err
		}
		for _, frame := range ch.frames {
			if err := writeBytes(w, frame); err != nil {
				return err
			}
		}
	}
	if err := writeUvarint(w, uint64(v.tailRows)); err != nil {
		return err
	}
	if v.tailRows > 0 {
		for _, col := range v.tail {
			if err := writeBytes(w, storage.EncodeColumn(col)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadBinary deserializes a table written by WriteBinary (either format
// version). Every sealed chunk is decoded once to validate its frames and
// recompute zone maps and size accounting; the decoded columns are then
// dropped, so load memory is bounded by one chunk, not the table.
func ReadBinary(r io.Reader) (*Table, error) {
	magic := make([]byte, len(tableMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("table: reading magic: %w", err)
	}
	switch string(magic) {
	case string(tableMagic):
		return readBinaryV2(r)
	case string(tableMagicV1):
		return readBinaryV1(r)
	}
	return nil, fmt.Errorf("table: bad magic %q", magic)
}

func readBinaryV2(r io.Reader) (*Table, error) {
	nameB, err := readBytes(r)
	if err != nil {
		return nil, err
	}
	chunkRows, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if chunkRows == 0 || chunkRows > 1<<31 {
		return nil, fmt.Errorf("table: implausible chunk row budget %d", chunkRows)
	}
	ncols, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if ncols == 0 || ncols > 1<<16 {
		return nil, fmt.Errorf("table: implausible column count %d", ncols)
	}
	defs := make([]ColumnDef, 0, ncols)
	for i := uint64(0); i < ncols; i++ {
		cn, err := readBytes(r)
		if err != nil {
			return nil, err
		}
		var tb [1]byte
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return nil, fmt.Errorf("table: column %q type: %w", cn, err)
		}
		defs = append(defs, ColumnDef{Name: string(cn), Type: storage.ColType(tb[0])})
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	nsealed, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if nsealed > 1<<31 {
		return nil, fmt.Errorf("table: implausible chunk count %d", nsealed)
	}
	t := New(string(nameB), schema)
	t.chunkRows = int(chunkRows)
	for c := uint64(0); c < nsealed; c++ {
		rows, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if rows == 0 || rows > chunkRows {
			return nil, fmt.Errorf("table: chunk %d has implausible row count %d", c, rows)
		}
		ch := &Chunk{rows: int(rows), frames: make([][]byte, ncols), zones: make([]ZoneMap, ncols)}
		for i := uint64(0); i < ncols; i++ {
			frame, err := readBytes(r)
			if err != nil {
				return nil, err
			}
			ch.frames[i] = frame
			ch.encoded += len(frame)
		}
		// Validate by decoding once, and recompute zones and the raw-size
		// estimate from the decoded columns.
		cols, err := ch.decode()
		if err != nil {
			return nil, fmt.Errorf("table: chunk %d: %w", c, err)
		}
		for i, col := range cols {
			if col.Type() != defs[i].Type {
				return nil, fmt.Errorf("table: chunk %d column %q is %v, schema says %v", c, defs[i].Name, col.Type(), defs[i].Type)
			}
			ch.zones[i] = zoneOf(col, ch.rows)
			ch.raw += colRawBytes(col, ch.rows)
		}
		t.sealed = append(t.sealed, ch)
		t.sealedRows += ch.rows
	}
	tailRows, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if tailRows > chunkRows {
		return nil, fmt.Errorf("table: implausible tail row count %d", tailRows)
	}
	if tailRows > 0 {
		for i := uint64(0); i < ncols; i++ {
			frame, err := readBytes(r)
			if err != nil {
				return nil, err
			}
			col, err := storage.DecodeColumn(frame)
			if err != nil {
				return nil, fmt.Errorf("table: tail column %q: %w", defs[i].Name, err)
			}
			if col.Type() != defs[i].Type {
				return nil, fmt.Errorf("table: tail column %q is %v, schema says %v", defs[i].Name, col.Type(), defs[i].Type)
			}
			if col.Len() != int(tailRows) {
				return nil, fmt.Errorf("table: tail column %q has %d rows, want %d", defs[i].Name, col.Len(), tailRows)
			}
			t.tail[i] = col
		}
		t.tailRows = int(tailRows)
		if t.tailRows >= t.chunkRows {
			t.sealTailLocked()
		}
	}
	t.version = uint64(t.sealedRows + t.tailRows)
	return t, nil
}

// readBinaryV1 reads the legacy flat format: whole-column frames, which are
// decoded and re-appended row by row so the table re-seals under the current
// chunk budget.
func readBinaryV1(r io.Reader) (*Table, error) {
	nameB, err := readBytes(r)
	if err != nil {
		return nil, err
	}
	ncols, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if ncols == 0 || ncols > 1<<16 {
		return nil, fmt.Errorf("table: implausible column count %d", ncols)
	}
	defs := make([]ColumnDef, 0, ncols)
	cols := make([]storage.Column, 0, ncols)
	rows := -1
	for i := uint64(0); i < ncols; i++ {
		cn, err := readBytes(r)
		if err != nil {
			return nil, err
		}
		frame, err := readBytes(r)
		if err != nil {
			return nil, err
		}
		col, err := storage.DecodeColumn(frame)
		if err != nil {
			return nil, fmt.Errorf("table: column %q: %w", cn, err)
		}
		if rows == -1 {
			rows = col.Len()
		} else if col.Len() != rows {
			return nil, fmt.Errorf("table: column %q has %d rows, want %d", cn, col.Len(), rows)
		}
		defs = append(defs, ColumnDef{Name: string(cn), Type: col.Type()})
		cols = append(cols, col)
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t := New(string(nameB), schema)
	if rows < 0 {
		rows = 0
	}
	vrow := make([]expr.Value, len(cols))
	for r := 0; r < rows; r++ {
		for i, col := range cols {
			vrow[i] = col.Value(r)
		}
		if err := t.appendRowLocked(vrow); err != nil {
			return nil, err
		}
	}
	t.version = uint64(rows)
	return t, nil
}

func writeUvarint(w io.Writer, v uint64) error {
	buf := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(buf, v)
	_, err := w.Write(buf[:n])
	return err
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

type byteReaderWrap struct{ r io.Reader }

func (b byteReaderWrap) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}

func readUvarint(r io.Reader) (uint64, error) {
	if br, ok := r.(io.ByteReader); ok {
		return binary.ReadUvarint(br)
	}
	return binary.ReadUvarint(byteReaderWrap{r})
}

// readBytes reads a uvarint-prefixed byte string. The buffer grows with the
// bytes actually read, doubling from readStep, not with the prefix: a
// corrupt length costs at most about twice what the input holds.
func readBytes(r io.Reader) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("table: implausible length %d", n)
	}
	b := make([]byte, 0, min(n, readStep))
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(int(n), 2*cap(b))-len(b))
		}
		k, err := io.ReadFull(r, b[len(b):min(int(n), cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			if err == io.EOF && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return b, nil
}

// readStep is readBytes' first buffer size for a long byte string.
const readStep = 64 << 10
