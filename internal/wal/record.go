package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"datalaws/internal/codec"
	"datalaws/internal/expr"
	"datalaws/internal/forms"
	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// The record codec. A payload is one type byte and then that type's fields
// in the internal/codec encoding. DDL records hold the engine's own
// declaration types, so the log adds no mirror of them: a CREATE TABLE
// writes its table.Decl and a FIT MODEL writes the spec fields of a
// modelstore.ModelRecord, the source form that models.json and the replica
// feed carry too. Values, declarations and specs are written by
// internal/forms, which the server's wire frame shares.

// Type enumerates logical record kinds. Appends carry the rows themselves;
// DDL records are logical — recovery re-executes the operation against the
// recovered state, so a replayed FIT re-derives its parameters from exactly
// the data visible at the record's log position.
type Type uint8

// Record kinds.
const (
	TypeAppend Type = iota + 1
	TypeCreateTable
	TypeDropTable
	TypeFitModel
	TypeRefitModel
	TypeDropModel
)

func (t Type) String() string {
	switch t {
	case TypeAppend:
		return "append"
	case TypeCreateTable:
		return "create-table"
	case TypeDropTable:
		return "drop-table"
	case TypeFitModel:
		return "fit-model"
	case TypeRefitModel:
		return "refit-model"
	case TypeDropModel:
		return "drop-model"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Record is one logical WAL entry. Only the fields relevant to Type are
// set; the rest stay zero. DDL payloads are the engine's own declaration
// types: a CREATE TABLE carries the table's Decl, and a FIT MODEL carries
// the law in the source form models.json and the replica feed also carry,
// a ModelRecord's spec fields (Name through Method), so replay re-fits
// deterministically.
type Record struct {
	Type  Type
	Table string         // Append / DropTable target
	Rows  [][]expr.Value // Append payload

	Decl *table.Decl // CreateTable payload

	Name string                  // RefitModel / DropModel target
	Fit  *modelstore.ModelRecord // FitModel payload: spec fields only
}

// Errors surfaced by frame decoding.
var (
	// ErrCorrupt marks a torn or checksum-failing frame; replay truncates
	// the log at the first occurrence.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// maxFrame bounds a single record payload (a defense against reading a
// garbage length prefix as a multi-gigabyte allocation).
const maxFrame = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// --- frame layer: [len uint32 LE][crc32c uint32 LE][payload] ---

// appendFrame appends the framed payload to buf and returns it.
func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame reads one framed payload. io.EOF means a clean end of segment;
// ErrCorrupt means a torn or corrupt frame (truncate here); other errors are
// I/O failures.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrCorrupt // torn header
		}
		return nil, err // io.EOF: the clean end
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return nil, ErrCorrupt
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrCorrupt // torn payload
		}
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// --- record encoding ---

// Encode serializes the record payload (without framing).
func (r *Record) Encode() []byte {
	e := make(codec.Encoder, 0, 64)
	e.Byte(byte(r.Type))
	switch r.Type {
	case TypeAppend:
		e.Str(r.Table)
		e.Uvarint(uint64(len(r.Rows)))
		for _, row := range r.Rows {
			e.Uvarint(uint64(len(row)))
			for _, v := range row {
				forms.EncodeValue(&e, v)
			}
		}
	case TypeCreateTable:
		forms.EncodeDecl(&e, r.Decl)
	case TypeDropTable:
		e.Str(r.Table)
	case TypeFitModel:
		forms.EncodeSpec(&e, r.Fit)
	case TypeRefitModel, TypeDropModel:
		e.Str(r.Name)
	}
	return e
}

// Decode parses a record payload produced by Encode. A malformed payload —
// which the CRC layer should have caught — reports ErrCorrupt.
func Decode(payload []byte) (*Record, error) {
	d := codec.NewDecoder(payload)
	rec := decode(d)
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// decode reads one record; d's error says whether it is whole.
func decode(d *codec.Decoder) *Record {
	rec := &Record{Type: Type(d.Byte())}
	switch rec.Type {
	case TypeAppend:
		rec.Table = d.Str()
		if n := d.Count(1); n > 0 {
			rec.Rows = make([][]expr.Value, n)
		}
		for i := range rec.Rows {
			row := make([]expr.Value, d.Count(1))
			for j := range row {
				forms.DecodeValue(d, &row[j])
			}
			rec.Rows[i] = row
		}
	case TypeCreateTable:
		rec.Decl = forms.DecodeDecl(d)
	case TypeDropTable:
		rec.Table = d.Str()
	case TypeFitModel:
		rec.Fit = &modelstore.ModelRecord{}
		forms.DecodeSpec(d, rec.Fit)
	case TypeRefitModel, TypeDropModel:
		rec.Name = d.Str()
	default:
		d.Fail(fmt.Errorf("unknown record type %d", rec.Type))
	}
	return rec
}
