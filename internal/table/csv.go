package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"datalaws/internal/expr"
	"datalaws/internal/storage"
)

// ReadCSV loads a table from CSV with a header row, inferring column types
// from the first data row (int64 → float64 → bool → string fallback). Empty
// fields become NULL.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("table: CSV row has %d fields, header has %d", len(rec), len(header))
		}
		records = append(records, rec)
	}
	defs := make([]ColumnDef, len(header))
	for i, h := range header {
		defs[i] = ColumnDef{Name: h, Type: inferType(records, i)}
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t := New(name, schema)
	for rn, rec := range records {
		vals := make([]expr.Value, len(rec))
		for i, field := range rec {
			v, err := parseField(field, defs[i].Type)
			if err != nil {
				return nil, fmt.Errorf("table: CSV row %d column %q: %w", rn+1, header[i], err)
			}
			vals[i] = v
		}
		if err := t.AppendRow(vals); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func inferType(records [][]string, col int) storage.ColType {
	sawAny := false
	isInt, isFloat, isBool := true, true, true
	for _, rec := range records {
		f := rec[col]
		if f == "" {
			continue
		}
		sawAny = true
		if _, err := strconv.ParseInt(f, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			isFloat = false
		}
		if _, err := strconv.ParseBool(f); err != nil {
			isBool = false
		}
		if !isInt && !isFloat && !isBool {
			return storage.TypeString
		}
	}
	switch {
	case !sawAny:
		return storage.TypeString
	case isInt:
		return storage.TypeInt64
	case isFloat:
		return storage.TypeFloat64
	case isBool:
		return storage.TypeBool
	}
	return storage.TypeString
}

func parseField(f string, t storage.ColType) (expr.Value, error) {
	if f == "" {
		return expr.Null(), nil
	}
	switch t {
	case storage.TypeInt64:
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.Int(v), nil
	case storage.TypeFloat64:
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.Float(v), nil
	case storage.TypeBool:
		v, err := strconv.ParseBool(f)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.Bool(v), nil
	}
	return expr.Str(f), nil
}

// WriteCSV writes one view of the table with a header row, chunk by chunk.
// NULLs render as empty fields.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	v := t.Chunks()
	rec := make([]string, len(t.Schema().Cols))
	for k := 0; k < v.NumChunks(); k++ {
		cols, err := v.Columns(k)
		if err != nil {
			return err
		}
		for r, n := 0, v.ChunkLen(k); r < n; r++ {
			for c, col := range cols {
				rec[c] = renderField(col.Value(r))
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func renderField(v expr.Value) string {
	switch v.K {
	case expr.KindNull:
		return ""
	case expr.KindInt:
		return strconv.FormatInt(v.I, 10)
	case expr.KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case expr.KindBool:
		return strconv.FormatBool(v.B)
	}
	return v.S
}
