package wal

import (
	"bytes"
	"reflect"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// FuzzWALRecord feeds arbitrary payloads to Decode: nothing may panic or
// size an allocation by a length prefix the payload cannot back, and an
// accepted record must equal the decoding of its own encoding.
func FuzzWALRecord(f *testing.F) {
	for _, rec := range []*Record{
		appendRec("m", row(expr.Int(1), expr.Float(2.5), expr.Str("x"), expr.Bool(true), expr.Null())),
		{Type: TypeCreateTable, Decl: &table.Decl{Name: "p", Cols: []table.ColumnDef{{Name: "k", Type: 0}, {Name: "x", Type: 1}},
			PartCol: "k", Parts: []table.RangePartition{{Name: "p0", Upper: 10}, {Name: "p1", Max: true}}}},
		{Type: TypeDropTable, Table: "t"},
		{Type: TypeFitModel, Fit: &modelstore.ModelRecord{
			Name: "law", Table: "m", Formula: "y ~ a * pow(x, b)", Inputs: []string{"x"},
			GroupBy: "g", WhereSrc: "x > 0", Start: map[string]float64{"a": 1, "b": -1}, Method: "lm",
		}},
		{Type: TypeRefitModel, Name: "law"},
	} {
		seed := rec.Encode()
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	// A row count, a column count and a START count far beyond the payload.
	f.Add([]byte{byte(TypeAppend), 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(TypeCreateTable), 1, 't', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(TypeFitModel), 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := Decode(payload)
		if err != nil {
			return
		}
		back, err := Decode(rec.Encode())
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		// NaN values never equal themselves, so a record that differs from
		// its round trip must at least re-encode to the same bits.
		if !reflect.DeepEqual(rec, back) && !bytes.Equal(rec.Encode(), back.Encode()) {
			t.Fatalf("round trip changed the record\nfirst  %+v\nsecond %+v", rec, back)
		}
	})
}
