package exec

import (
	"datalaws/internal/expr"
)

// BatchSize is the number of rows a vectorized operator processes per
// NextBatch call: large enough to amortize per-batch dispatch, small enough
// to keep the working set of one pipeline stage in cache.
const BatchSize = 1024

// anyKind marks a Vector whose entries carry heterogeneous runtime kinds and
// therefore live boxed in the Any slice. It only occurs for derived columns
// (e.g. aggregate groups mixing INT and FLOAT keys); base-table vectors are
// always typed.
const anyKind = expr.Kind(0xFF)

// Vector is one column of a Batch: a typed slice plus an optional null mask.
// Exactly one of F/I/S/B/Any is populated according to Kind. A nil Null mask
// means the vector has no NULL entries; entries at masked positions are
// unspecified. Vectors produced by scans may alias storage directly, so
// consumers must treat them as read-only.
type Vector struct {
	Kind expr.Kind
	F    []float64
	I    []int64
	S    []string
	B    []bool
	Any  []expr.Value
	Null []bool
	// Stable marks a vector whose typed data array (F/I/S/B/Any) is
	// immutable for the life of the query — a zero-copy view of a table
	// snapshot — so consumers that must retain batches (the parallel
	// gather) may alias it instead of copying. The Null mask is NOT
	// covered: scans materialize it into reusable scratch.
	Stable bool
	// Sorted marks an INT vector with no NULL whose entries never decrease:
	// a scan window of a sealed chunk whose zone map says Sorted. Only the
	// scan's window sets it, afresh on every window.
	Sorted bool
}

// Len returns the physical length of the vector.
func (v *Vector) Len() int {
	switch v.Kind {
	case expr.KindFloat:
		return len(v.F)
	case expr.KindInt:
		return len(v.I)
	case expr.KindString:
		return len(v.S)
	case expr.KindBool:
		return len(v.B)
	case anyKind:
		return len(v.Any)
	}
	return len(v.Null) // all-NULL vector: the mask carries the length
}

// IsNull reports whether entry i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.Kind == expr.KindNull {
		return true
	}
	if v.Kind == anyKind {
		return v.Any[i].IsNull()
	}
	return v.Null != nil && v.Null[i]
}

// Value boxes entry i as a runtime value.
func (v *Vector) Value(i int) expr.Value {
	if v.IsNull(i) {
		return expr.Null()
	}
	switch v.Kind {
	case expr.KindFloat:
		return expr.Float(v.F[i])
	case expr.KindInt:
		return expr.Int(v.I[i])
	case expr.KindString:
		return expr.Str(v.S[i])
	case expr.KindBool:
		return expr.Bool(v.B[i])
	case anyKind:
		return v.Any[i]
	}
	return expr.Null()
}

// newNullVector returns an all-NULL vector of physical length n.
func newNullVector(n int) *Vector {
	return &Vector{Kind: expr.KindNull, Null: make([]bool, n)}
}

// vectorFromValues builds a vector from boxed values, choosing a typed
// representation when every non-NULL entry shares one kind and falling back
// to a boxed any-vector otherwise. Kinds are preserved exactly (no int→float
// promotion) so batch results compare bit-for-bit with row results.
func vectorFromValues(vals []expr.Value) *Vector {
	kind := expr.KindNull
	uniform := true
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if kind == expr.KindNull {
			kind = v.K
		} else if v.K != kind {
			uniform = false
			break
		}
	}
	if !uniform {
		out := &Vector{Kind: anyKind, Any: make([]expr.Value, len(vals))}
		copy(out.Any, vals)
		return out
	}
	n := len(vals)
	switch kind {
	case expr.KindNull:
		return newNullVector(n)
	case expr.KindFloat:
		out := &Vector{Kind: kind, F: make([]float64, n)}
		for i, v := range vals {
			if v.IsNull() {
				out.setNull(i, n)
				continue
			}
			out.F[i] = v.F
		}
		return out
	case expr.KindInt:
		out := &Vector{Kind: kind, I: make([]int64, n)}
		for i, v := range vals {
			if v.IsNull() {
				out.setNull(i, n)
				continue
			}
			out.I[i] = v.I
		}
		return out
	case expr.KindString:
		out := &Vector{Kind: kind, S: make([]string, n)}
		for i, v := range vals {
			if v.IsNull() {
				out.setNull(i, n)
				continue
			}
			out.S[i] = v.S
		}
		return out
	default: // KindBool
		out := &Vector{Kind: kind, B: make([]bool, n)}
		for i, v := range vals {
			if v.IsNull() {
				out.setNull(i, n)
				continue
			}
			out.B[i] = v.B
		}
		return out
	}
}

func (v *Vector) setNull(i, n int) {
	if v.Null == nil {
		v.Null = make([]bool, n)
	}
	v.Null[i] = true
}

// Batch is a horizontal slice of rows in columnar form. N is the physical
// row count of every column; Sel, when non-nil, lists the physical row
// indexes that are logically present (in order), implementing filtering
// without copying column data. A batch is owned by its consumer until the
// producing operator's next NextBatch call, and consumers may set Sel on a
// batch they received.
type Batch struct {
	N    int
	Cols []*Vector
	Sel  []int
}

// NumRows returns the logical (selected) row count.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// identitySel backs the identity selection of every batch of at most
// BatchSize rows. It is shared, so no consumer may write to a selection.
var identitySel = func() []int {
	s := make([]int, BatchSize)
	for i := range s {
		s[i] = i
	}
	return s
}()

// selection returns the physical indexes of the logical rows, read-only:
// the identity selection of an unfiltered batch is shared.
func (b *Batch) selection() []int {
	if b.Sel != nil {
		return b.Sel
	}
	if b.N <= BatchSize {
		return identitySel[:b.N:b.N]
	}
	all := make([]int, b.N)
	for i := range all {
		all[i] = i
	}
	return all
}
