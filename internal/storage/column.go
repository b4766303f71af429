package storage

import (
	"fmt"

	"datalaws/internal/expr"
)

// ColType enumerates the storage types of a column.
type ColType uint8

// Supported column types.
const (
	TypeInt64 ColType = iota
	TypeFloat64
	TypeString
	TypeBool
)

func (t ColType) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// Column is a typed, nullable, append-only column.
type Column interface {
	Type() ColType
	Len() int
	// Value returns the i-th entry boxed as a runtime value (NULL when the
	// null bit is set).
	Value(i int) expr.Value
	// AppendValue appends a boxed value, coercing compatible kinds; a NULL
	// appends a null entry.
	AppendValue(v expr.Value) error
	// IsNull reports whether entry i is NULL.
	IsNull(i int) bool
}

// Int64Column stores 64-bit integers.
type Int64Column struct {
	Vals  []int64
	Nulls *Bitmap
}

// NewInt64Column returns an empty integer column.
func NewInt64Column() *Int64Column { return &Int64Column{Nulls: NewBitmap(0)} }

// Type implements Column.
func (c *Int64Column) Type() ColType { return TypeInt64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *Int64Column) IsNull(i int) bool { return c.Nulls.Get(i) }

// Append adds a non-null value.
func (c *Int64Column) Append(v int64) {
	c.Vals = append(c.Vals, v)
	c.Nulls.Append(false)
}

// AppendNull adds a NULL entry.
func (c *Int64Column) AppendNull() {
	c.Vals = append(c.Vals, 0)
	c.Nulls.Append(true)
}

// Value implements Column.
func (c *Int64Column) Value(i int) expr.Value {
	if c.Nulls.Get(i) {
		return expr.Null()
	}
	return expr.Int(c.Vals[i])
}

// AppendValue implements Column.
func (c *Int64Column) AppendValue(v expr.Value) error {
	switch v.K {
	case expr.KindNull:
		c.AppendNull()
	case expr.KindInt:
		c.Append(v.I)
	case expr.KindFloat:
		c.Append(int64(v.F))
	case expr.KindBool:
		if v.B {
			c.Append(1)
		} else {
			c.Append(0)
		}
	default:
		return fmt.Errorf("storage: cannot store %s in BIGINT column", v.K)
	}
	return nil
}

// Float64Column stores double-precision floats.
type Float64Column struct {
	Vals  []float64
	Nulls *Bitmap
}

// NewFloat64Column returns an empty float column.
func NewFloat64Column() *Float64Column { return &Float64Column{Nulls: NewBitmap(0)} }

// Type implements Column.
func (c *Float64Column) Type() ColType { return TypeFloat64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *Float64Column) IsNull(i int) bool { return c.Nulls.Get(i) }

// Append adds a non-null value.
func (c *Float64Column) Append(v float64) {
	c.Vals = append(c.Vals, v)
	c.Nulls.Append(false)
}

// AppendNull adds a NULL entry.
func (c *Float64Column) AppendNull() {
	c.Vals = append(c.Vals, 0)
	c.Nulls.Append(true)
}

// Value implements Column.
func (c *Float64Column) Value(i int) expr.Value {
	if c.Nulls.Get(i) {
		return expr.Null()
	}
	return expr.Float(c.Vals[i])
}

// AppendValue implements Column.
func (c *Float64Column) AppendValue(v expr.Value) error {
	switch v.K {
	case expr.KindNull:
		c.AppendNull()
	case expr.KindInt:
		c.Append(float64(v.I))
	case expr.KindFloat:
		c.Append(v.F)
	default:
		return fmt.Errorf("storage: cannot store %s in DOUBLE column", v.K)
	}
	return nil
}

// StringColumn stores strings with dictionary encoding: each distinct string
// is kept once and rows store dictionary codes.
type StringColumn struct {
	Codes []uint32
	Dict  []string
	index map[string]uint32
	Nulls *Bitmap
}

// NewStringColumn returns an empty dictionary-encoded string column.
func NewStringColumn() *StringColumn {
	return &StringColumn{index: map[string]uint32{}, Nulls: NewBitmap(0)}
}

// Type implements Column.
func (c *StringColumn) Type() ColType { return TypeString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.Codes) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.Nulls.Get(i) }

// Append adds a non-null string.
func (c *StringColumn) Append(s string) {
	code, ok := c.index[s]
	if !ok {
		code = uint32(len(c.Dict))
		c.Dict = append(c.Dict, s)
		c.index[s] = code
	}
	c.Codes = append(c.Codes, code)
	c.Nulls.Append(false)
}

// AppendNull adds a NULL entry.
func (c *StringColumn) AppendNull() {
	c.Codes = append(c.Codes, 0)
	c.Nulls.Append(true)
}

// Get returns the string at i (empty for NULL).
func (c *StringColumn) Get(i int) string {
	if c.Nulls.Get(i) {
		return ""
	}
	return c.Dict[c.Codes[i]]
}

// Value implements Column.
func (c *StringColumn) Value(i int) expr.Value {
	if c.Nulls.Get(i) {
		return expr.Null()
	}
	return expr.Str(c.Dict[c.Codes[i]])
}

// AppendValue implements Column.
func (c *StringColumn) AppendValue(v expr.Value) error {
	switch v.K {
	case expr.KindNull:
		c.AppendNull()
	case expr.KindString:
		c.Append(v.S)
	default:
		return fmt.Errorf("storage: cannot store %s in VARCHAR column", v.K)
	}
	return nil
}

// Cardinality returns the number of distinct strings stored.
func (c *StringColumn) Cardinality() int { return len(c.Dict) }

// BoolColumn stores booleans.
type BoolColumn struct {
	Vals  *Bitmap
	Nulls *Bitmap
}

// NewBoolColumn returns an empty boolean column.
func NewBoolColumn() *BoolColumn { return &BoolColumn{Vals: NewBitmap(0), Nulls: NewBitmap(0)} }

// Type implements Column.
func (c *BoolColumn) Type() ColType { return TypeBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return c.Vals.Len() }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.Nulls.Get(i) }

// Append adds a non-null boolean.
func (c *BoolColumn) Append(v bool) {
	c.Vals.Append(v)
	c.Nulls.Append(false)
}

// AppendNull adds a NULL entry.
func (c *BoolColumn) AppendNull() {
	c.Vals.Append(false)
	c.Nulls.Append(true)
}

// Value implements Column.
func (c *BoolColumn) Value(i int) expr.Value {
	if c.Nulls.Get(i) {
		return expr.Null()
	}
	return expr.Bool(c.Vals.Get(i))
}

// AppendValue implements Column.
func (c *BoolColumn) AppendValue(v expr.Value) error {
	switch v.K {
	case expr.KindNull:
		c.AppendNull()
	case expr.KindBool:
		c.Append(v.B)
	case expr.KindInt:
		c.Append(v.I != 0)
	default:
		return fmt.Errorf("storage: cannot store %s in BOOLEAN column", v.K)
	}
	return nil
}

// NewColumn constructs an empty column of the given type.
func NewColumn(t ColType) Column {
	switch t {
	case TypeInt64:
		return NewInt64Column()
	case TypeFloat64:
		return NewFloat64Column()
	case TypeString:
		return NewStringColumn()
	case TypeBool:
		return NewBoolColumn()
	}
	panic(fmt.Sprintf("storage: unknown column type %d", t))
}
