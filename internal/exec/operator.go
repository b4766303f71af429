// Package exec implements the execution engine. The planner builds a parsed
// SELECT as a logical plan of row operators — table scans, filters,
// projections, hash aggregation, hash joins, sorting and limits — and lowers
// every plan into one morsel-driven pipeline of columnar batches that runs
// with a worker budget (see Lower and parallel.go). Drained as they are, the
// row operators are the reference the differential tests compare the
// pipeline against. The model-based "zero-IO" scan of the paper plugs into
// the same plan (see internal/aqp), so approximate and exact plans compose
// with the same machinery.
package exec

import (
	"errors"
	"fmt"
	"strings"

	"datalaws/internal/expr"
)

// ErrAmbiguous marks ambiguous-column resolution failures so operators can
// distinguish them from merely unknown names (which may be legitimate
// eval-time errors) and surface them at Open time.
var ErrAmbiguous = errors.New("ambiguous column")

// Row is one tuple of boxed values.
type Row []expr.Value

// Operator is a pull-based iterator over rows.
type Operator interface {
	// Columns returns the output column names. Names from base tables are
	// qualified as "table.column"; derived columns are bare.
	Columns() []string
	// Open prepares the operator; it must be called before Next.
	Open() error
	// Next returns the next row, or (nil, nil) at end of input.
	Next() (Row, error)
	// Close releases resources. It is safe to call after exhaustion.
	Close() error
}

// ResolveColumn finds the index of an identifier in a qualified column list.
// A qualified name ("t.x") must match exactly; a bare name matches a unique
// suffix. Ambiguous or missing names return an error.
func ResolveColumn(cols []string, name string) (int, error) {
	// Exact match first (covers both qualified idents and derived columns).
	for i, c := range cols {
		if c == name {
			return i, nil
		}
	}
	if !strings.Contains(name, ".") {
		found := -1
		for i, c := range cols {
			if idx := strings.LastIndexByte(c, '.'); idx >= 0 && c[idx+1:] == name {
				if found >= 0 {
					return 0, fmt.Errorf("exec: %w %q (matches %q and %q)", ErrAmbiguous, name, cols[found], c)
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
	}
	return 0, fmt.Errorf("exec: unknown column %q (have %v)", name, cols)
}

// rowEnv adapts a row plus its column names to the expression evaluator.
type rowEnv struct {
	cols []string
	row  Row
	// cache maps identifier names to resolved indexes across rows.
	cache map[string]int
}

func newRowEnv(cols []string) *rowEnv {
	return &rowEnv{cols: cols, cache: map[string]int{}}
}

// resolve pre-resolves every identifier the given expressions reference, so
// hot loops never call ResolveColumn and ambiguous columns error at Open
// time instead of surfacing as "unknown identifier" on the first row.
// Unknown names stay lazily reported (some, like aggregate placeholders,
// are legal eval-time errors).
func (e *rowEnv) resolve(exprs ...expr.Expr) error {
	for _, ex := range exprs {
		if ex == nil {
			continue
		}
		for _, name := range expr.Vars(ex) {
			if _, ok := e.cache[name]; ok {
				continue
			}
			i, err := ResolveColumn(e.cols, name)
			if err != nil {
				if errors.Is(err, ErrAmbiguous) {
					return err
				}
				e.cache[name] = -1
				continue
			}
			e.cache[name] = i
		}
	}
	return nil
}

func (e *rowEnv) bind(row Row) { e.row = row }

// Lookup implements expr.Env.
func (e *rowEnv) Lookup(name string) (expr.Value, bool) {
	if i, ok := e.cache[name]; ok {
		if i < 0 {
			return expr.Value{}, false
		}
		return e.row[i], true
	}
	i, err := ResolveColumn(e.cols, name)
	if err != nil {
		e.cache[name] = -1
		return expr.Value{}, false
	}
	e.cache[name] = i
	return e.row[i], true
}

// EvalPredicate evaluates a boolean expression over a row with SQL
// three-valued logic: NULL counts as not-matching.
func EvalPredicate(pred expr.Expr, env *rowEnv) (bool, error) {
	v, err := expr.Eval(pred, env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

// Drain runs an operator to completion and returns all rows.
func Drain(op Operator) ([]Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []Row
	for {
		r, err := op.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}
