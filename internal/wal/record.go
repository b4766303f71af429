package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// The record codec. A payload is one type byte and then that type's
// fields: strings and lists carry a uvarint length prefix, floats are 8
// bytes little-endian, booleans and column type codes one byte each. DDL
// records hold the engine's own declaration types, so the log adds no
// mirror of them: a CREATE TABLE writes its table.Decl (name, columns,
// partition column, partitions) and a FIT MODEL writes the spec fields of
// a modelstore.ModelRecord (name, table, formula, inputs, group column,
// WHERE source, method, START pairs sorted by name), the source form that
// models.json and the replica feed carry too. A length prefix larger than
// the rest of the payload can hold is corrupt, never an allocation size.

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
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, ErrCorrupt // torn header
		}
		return nil, err
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

type encoder struct{ buf []byte }

func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) bool(b bool)      { e.byte(boolByte(b)) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Encode serializes the record payload (without framing).
func (r *Record) Encode() []byte {
	e := &encoder{buf: make([]byte, 0, 64)}
	e.byte(byte(r.Type))
	switch r.Type {
	case TypeAppend:
		e.str(r.Table)
		e.uvarint(uint64(len(r.Rows)))
		for _, row := range r.Rows {
			e.uvarint(uint64(len(row)))
			for _, v := range row {
				e.byte(byte(v.K))
				switch v.K {
				case expr.KindInt:
					e.varint(v.I)
				case expr.KindFloat:
					e.float(v.F)
				case expr.KindString:
					e.str(v.S)
				case expr.KindBool:
					e.bool(v.B)
				}
			}
		}
	case TypeCreateTable:
		d := r.Decl
		e.str(d.Name)
		e.uvarint(uint64(len(d.Cols)))
		for _, c := range d.Cols {
			e.str(c.Name)
			e.byte(byte(c.Type))
		}
		e.str(d.PartCol)
		e.uvarint(uint64(len(d.Parts)))
		for _, p := range d.Parts {
			e.str(p.Name)
			e.float(p.Upper)
			e.bool(p.Max)
		}
	case TypeDropTable:
		e.str(r.Table)
	case TypeFitModel:
		f := r.Fit
		e.str(f.Name)
		e.str(f.Table)
		e.str(f.Formula)
		e.strs(f.Inputs)
		e.str(f.GroupBy)
		e.str(f.WhereSrc)
		e.str(f.Method)
		keys := make([]string, 0, len(f.Start))
		for k := range f.Start {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.float(f.Start[k])
		}
	case TypeRefitModel, TypeDropModel:
		e.str(r.Name)
	}
	return e.buf
}

type decoder struct{ buf []byte }

var errShort = errors.New("wal: short record")

func (d *decoder) byte() (byte, error) {
	if len(d.buf) < 1 {
		return 0, errShort
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *decoder) bool() (bool, error) {
	b, err := d.byte()
	return b != 0, err
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errShort
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, errShort
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) float() (float64, error) {
	if len(d.buf) < 8 {
		return 0, errShort
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)) < n {
		return "", errShort
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// count reads the length prefix of a list whose items take at least size
// bytes each, refusing one the rest of the payload cannot hold, so a
// corrupt prefix never sizes an allocation.
func (d *decoder) count(size int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)/size) {
		return 0, errShort
	}
	return int(n), nil
}

func (d *decoder) strs() ([]string, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Decode parses a record payload produced by Encode. A malformed payload —
// which the CRC layer should have caught — reports ErrCorrupt.
func Decode(payload []byte) (*Record, error) {
	rec, err := decode(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

func decode(payload []byte) (*Record, error) {
	d := &decoder{buf: payload}
	tb, err := d.byte()
	if err != nil {
		return nil, err
	}
	rec := &Record{Type: Type(tb)}
	switch rec.Type {
	case TypeAppend:
		if rec.Table, err = d.str(); err != nil {
			return nil, err
		}
		nrows, err := d.count(1)
		if err != nil {
			return nil, err
		}
		if nrows > 0 {
			rec.Rows = make([][]expr.Value, nrows)
		}
		for i := range rec.Rows {
			ncols, err := d.count(1)
			if err != nil {
				return nil, err
			}
			row := make([]expr.Value, ncols)
			for j := range row {
				kb, err := d.byte()
				if err != nil {
					return nil, err
				}
				switch expr.Kind(kb) {
				case expr.KindNull:
					row[j] = expr.Null()
				case expr.KindInt:
					v, err := d.varint()
					if err != nil {
						return nil, err
					}
					row[j] = expr.Int(v)
				case expr.KindFloat:
					v, err := d.float()
					if err != nil {
						return nil, err
					}
					row[j] = expr.Float(v)
				case expr.KindString:
					v, err := d.str()
					if err != nil {
						return nil, err
					}
					row[j] = expr.Str(v)
				case expr.KindBool:
					v, err := d.bool()
					if err != nil {
						return nil, err
					}
					row[j] = expr.Bool(v)
				default:
					return nil, fmt.Errorf("unknown value kind %d", kb)
				}
			}
			rec.Rows[i] = row
		}
	case TypeCreateTable:
		td := &table.Decl{}
		if td.Name, err = d.str(); err != nil {
			return nil, err
		}
		ncols, err := d.count(2)
		if err != nil {
			return nil, err
		}
		if ncols > 0 {
			td.Cols = make([]table.ColumnDef, ncols)
		}
		for i := range td.Cols {
			if td.Cols[i].Name, err = d.str(); err != nil {
				return nil, err
			}
			tb, err := d.byte()
			if err != nil {
				return nil, err
			}
			td.Cols[i].Type = storage.ColType(tb)
		}
		if td.PartCol, err = d.str(); err != nil {
			return nil, err
		}
		nparts, err := d.count(10)
		if err != nil {
			return nil, err
		}
		if nparts > 0 {
			td.Parts = make([]table.RangePartition, nparts)
		}
		for i := range td.Parts {
			if td.Parts[i].Name, err = d.str(); err != nil {
				return nil, err
			}
			if td.Parts[i].Upper, err = d.float(); err != nil {
				return nil, err
			}
			if td.Parts[i].Max, err = d.bool(); err != nil {
				return nil, err
			}
		}
		rec.Decl = td
	case TypeDropTable:
		if rec.Table, err = d.str(); err != nil {
			return nil, err
		}
	case TypeFitModel:
		f := &modelstore.ModelRecord{}
		if f.Name, err = d.str(); err != nil {
			return nil, err
		}
		if f.Table, err = d.str(); err != nil {
			return nil, err
		}
		if f.Formula, err = d.str(); err != nil {
			return nil, err
		}
		if f.Inputs, err = d.strs(); err != nil {
			return nil, err
		}
		if f.GroupBy, err = d.str(); err != nil {
			return nil, err
		}
		if f.WhereSrc, err = d.str(); err != nil {
			return nil, err
		}
		if f.Method, err = d.str(); err != nil {
			return nil, err
		}
		nstart, err := d.count(9)
		if err != nil {
			return nil, err
		}
		if nstart > 0 {
			f.Start = make(map[string]float64, nstart)
			for i := 0; i < nstart; i++ {
				k, err := d.str()
				if err != nil {
					return nil, err
				}
				v, err := d.float()
				if err != nil {
					return nil, err
				}
				f.Start[k] = v
			}
		}
		rec.Fit = f
	case TypeRefitModel, TypeDropModel:
		if rec.Name, err = d.str(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown record type %d", tb)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return rec, nil
}
