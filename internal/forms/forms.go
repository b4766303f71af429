// Package forms encodes, with internal/codec, the three forms that both the
// WAL record and the server's wire frame carry: a value, a table's
// declaration, and a law's spec in source form. Each has this one encoding,
// on disk and on the network alike.
package forms

import (
	"fmt"

	"datalaws/internal/codec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// EncodeValue appends v's kind byte and then the value it announces; a
// NULL is its kind byte alone.
func EncodeValue(e *codec.Encoder, v expr.Value) {
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

// DecodeValue reads what EncodeValue wrote into v. It writes through v
// rather than returning the value: copying a returned expr.Value into a row
// costs a bulk write barrier per value while the GC runs.
func DecodeValue(d *codec.Decoder, v *expr.Value) {
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

// EncodeDecl appends a table declaration: name, columns (name and type
// code), partition column and partitions.
func EncodeDecl(e *codec.Encoder, td *table.Decl) {
	e.Str(td.Name)
	e.Uvarint(uint64(len(td.Cols)))
	for _, c := range td.Cols {
		e.Str(c.Name)
		e.Byte(byte(c.Type))
	}
	e.Str(td.PartCol)
	e.Uvarint(uint64(len(td.Parts)))
	for _, p := range td.Parts {
		e.Str(p.Name)
		e.Float(p.Upper)
		e.Bool(p.Max)
	}
}

// DecodeDecl reads what EncodeDecl wrote.
func DecodeDecl(d *codec.Decoder) *table.Decl {
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
	return td
}

// EncodeSpec appends a record's spec fields, the law's source form: name,
// table, formula, inputs, group column, WHERE source, method, and the START
// pairs sorted by name.
func EncodeSpec(e *codec.Encoder, r *modelstore.ModelRecord) {
	e.Str(r.Name)
	e.Str(r.Table)
	e.Str(r.Formula)
	e.Strs(r.Inputs)
	e.Str(r.GroupBy)
	e.Str(r.WhereSrc)
	e.Str(r.Method)
	e.FloatMap(r.Start)
}

// DecodeSpec reads what EncodeSpec wrote into r's spec fields.
func DecodeSpec(d *codec.Decoder, r *modelstore.ModelRecord) {
	r.Name, r.Table, r.Formula, r.Inputs = d.Str(), d.Str(), d.Str(), d.Strs()
	r.GroupBy, r.WhereSrc, r.Method = d.Str(), d.Str(), d.Str()
	r.Start = d.FloatMap()
}
