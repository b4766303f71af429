package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"datalaws/internal/codec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// The record codec. A payload is one type byte and then that type's fields
// in the internal/codec encoding; a column type code is one byte. DDL
// records hold the engine's own declaration types, so the log adds no
// mirror of them: a CREATE TABLE writes its table.Decl (name, columns,
// partition column, partitions) and a FIT MODEL writes the spec fields of
// a modelstore.ModelRecord (name, table, formula, inputs, group column,
// WHERE source, method, START pairs sorted by name), the source form that
// models.json and the replica feed carry too.

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
				e.Byte(byte(v.K))
				switch v.K {
				case expr.KindInt:
					e.Varint(v.I)
				case expr.KindFloat:
					e.Float(v.F)
				case expr.KindString:
					e.Str(v.S)
				case expr.KindBool:
					e.Bool(v.B)
				}
			}
		}
	case TypeCreateTable:
		d := r.Decl
		e.Str(d.Name)
		e.Uvarint(uint64(len(d.Cols)))
		for _, c := range d.Cols {
			e.Str(c.Name)
			e.Byte(byte(c.Type))
		}
		e.Str(d.PartCol)
		e.Uvarint(uint64(len(d.Parts)))
		for _, p := range d.Parts {
			e.Str(p.Name)
			e.Float(p.Upper)
			e.Bool(p.Max)
		}
	case TypeDropTable:
		e.Str(r.Table)
	case TypeFitModel:
		f := r.Fit
		e.Str(f.Name)
		e.Str(f.Table)
		e.Str(f.Formula)
		e.Strs(f.Inputs)
		e.Str(f.GroupBy)
		e.Str(f.WhereSrc)
		e.Str(f.Method)
		keys := make([]string, 0, len(f.Start))
		for k := range f.Start {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Str(k)
			e.Float(f.Start[k])
		}
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
				decodeValue(d, &row[j])
			}
			rec.Rows[i] = row
		}
	case TypeCreateTable:
		td := &table.Decl{Name: d.Str()}
		if n := d.Count(2); n > 0 {
			td.Cols = make([]table.ColumnDef, n)
		}
		for i := range td.Cols {
			td.Cols[i] = table.ColumnDef{Name: d.Str(), Type: storage.ColType(d.Byte())}
		}
		td.PartCol = d.Str()
		if n := d.Count(10); n > 0 {
			td.Parts = make([]table.RangePartition, n)
		}
		for i := range td.Parts {
			td.Parts[i] = table.RangePartition{Name: d.Str(), Upper: d.Float(), Max: d.Bool()}
		}
		rec.Decl = td
	case TypeDropTable:
		rec.Table = d.Str()
	case TypeFitModel:
		f := &modelstore.ModelRecord{Name: d.Str(), Table: d.Str(), Formula: d.Str(), Inputs: d.Strs(),
			GroupBy: d.Str(), WhereSrc: d.Str(), Method: d.Str()}
		if n := d.Count(9); n > 0 {
			f.Start = make(map[string]float64, n)
			for range n {
				k := d.Str()
				f.Start[k] = d.Float()
			}
		}
		rec.Fit = f
	case TypeRefitModel, TypeDropModel:
		rec.Name = d.Str()
	default:
		d.Fail(fmt.Errorf("unknown record type %d", rec.Type))
	}
	return rec
}

// decodeValue reads one kind byte and the value it announces into v. It
// writes through v rather than returning the value: copying a returned
// expr.Value into the row costs a bulk write barrier per value while the
// GC runs.
func decodeValue(d *codec.Decoder, v *expr.Value) {
	switch k := expr.Kind(d.Byte()); k {
	case expr.KindNull:
		*v = expr.Null()
	case expr.KindInt:
		*v = expr.Int(d.Varint())
	case expr.KindFloat:
		*v = expr.Float(d.Float())
	case expr.KindString:
		*v = expr.Str(d.Str())
	case expr.KindBool:
		*v = expr.Bool(d.Bool())
	default:
		d.Fail(fmt.Errorf("unknown value kind %d", k))
	}
}
