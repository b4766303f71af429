// Package expr implements the typed scalar expression language shared by the
// SQL layer (predicates, projections) and the model-capture layer (user
// model formulas such as "p * pow(nu, alpha)"). It provides a lexer, a
// precedence-climbing parser, a typed evaluator with SQL-style NULL
// semantics, a float fast path for fitting loops, and symbolic
// differentiation used for analytic Jacobians and model exploration.
package expr

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates runtime value types.
type Kind uint8

// Value kinds. Null propagates through arithmetic and comparisons as in SQL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a runtime scalar. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Convenience constructors.

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// ValuesOf boxes Go arguments, such as statement parameters, as Values:
// nil, Value, int, int32, int64, float32, float64, string and bool.
func ValuesOf(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = Null()
		case Value:
			out[i] = v
		case int:
			out[i] = Int(int64(v))
		case int32:
			out[i] = Int(int64(v))
		case int64:
			out[i] = Int(v)
		case float32:
			out[i] = Float(float64(v))
		case float64:
			out[i] = Float(v)
		case string:
			out[i] = Str(v)
		case bool:
			out[i] = Bool(v)
		default:
			return nil, fmt.Errorf("argument %d: unsupported argument type %T", i+1, a)
		}
	}
	return out, nil
}

// Scan copies v into dest, a result cursor's Scan target: *int64, *float64
// (INT coerces), *string, *bool, *Value, or *any (the native Go value, nil
// for NULL).
func (v Value) Scan(dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
	case *any:
		switch v.K {
		case KindInt:
			*d = v.I
		case KindFloat:
			*d = v.F
		case KindString:
			*d = v.S
		case KindBool:
			*d = v.B
		default:
			*d = nil
		}
	case *int64:
		if v.K != KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v.K)
		}
		*d = v.I
	case *float64:
		if v.K != KindFloat && v.K != KindInt {
			return fmt.Errorf("cannot scan %s into *float64", v.K)
		}
		*d, _ = v.AsFloat()
	case *string:
		if v.K != KindString {
			return fmt.Errorf("cannot scan %s into *string", v.K)
		}
		*d = v.S
	case *bool:
		if v.K != KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v.K)
		}
		*d = v.B
	default:
		return fmt.Errorf("unsupported Scan target %T", dest)
	}
	return nil
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsFloat coerces numeric values to float64. Booleans map to 0/1.
func (v Value) AsFloat() (float64, error) {
	switch v.K {
	case KindInt:
		return float64(v.I), nil
	case KindFloat:
		return v.F, nil
	case KindBool:
		if v.B {
			return 1, nil
		}
		return 0, nil
	case KindString:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return 0, fmt.Errorf("expr: cannot coerce string %q to number", v.S)
		}
		return f, nil
	case KindNull:
		return 0, fmt.Errorf("expr: NULL has no numeric value")
	}
	return 0, fmt.Errorf("expr: cannot coerce %s to number", v.K)
}

// AsBool coerces to boolean; numbers are true when nonzero.
func (v Value) AsBool() (bool, error) {
	switch v.K {
	case KindBool:
		return v.B, nil
	case KindInt:
		return v.I != 0, nil
	case KindFloat:
		return v.F != 0, nil
	case KindNull:
		return false, nil
	}
	return false, fmt.Errorf("expr: cannot coerce %s to bool", v.K)
}

// String renders the value in SQL-literal style.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Compare orders two values. It returns <0, 0, >0 and an error when the
// kinds are incomparable. NULLs compare as errors (callers apply SQL
// three-valued logic before calling Compare).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("expr: cannot compare NULL")
	}
	if a.K == KindString || b.K == KindString {
		if a.K != KindString || b.K != KindString {
			return 0, fmt.Errorf("expr: cannot compare %s with %s", a.K, b.K)
		}
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		}
		return 0, nil
	}
	if a.K == KindBool || b.K == KindBool {
		ab, _ := a.AsBool()
		bb, _ := b.AsBool()
		switch {
		case !ab && bb:
			return -1, nil
		case ab && !bb:
			return 1, nil
		}
		return 0, nil
	}
	// Numeric comparison; preserve int precision when both are ints.
	if a.K == KindInt && b.K == KindInt {
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	}
	af, err := a.AsFloat()
	if err != nil {
		return 0, err
	}
	bf, err := b.AsFloat()
	if err != nil {
		return 0, err
	}
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	case math.IsNaN(af) && !math.IsNaN(bf):
		return -1, nil
	case !math.IsNaN(af) && math.IsNaN(bf):
		return 1, nil
	}
	return 0, nil
}

// Equal reports whether two values are equal under Compare semantics,
// treating two NULLs as equal (used for grouping keys, not predicates).
func Equal(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNull() != b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}
