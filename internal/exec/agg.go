package exec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"datalaws/internal/expr"
)

// AggKind enumerates supported aggregate functions.
type AggKind uint8

// Aggregates. Var and StdDev use Welford's online algorithm with the
// unbiased (n−1) denominator.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
	AggVar
	AggStdDev
)

// aggKindByName maps lower-case function names to aggregate kinds.
// count with zero args is COUNT(*).
var aggKindByName = map[string]AggKind{
	"count": AggCount, "sum": AggSum, "avg": AggAvg,
	"min": AggMin, "max": AggMax, "var": AggVar, "stddev": AggStdDev,
}

// IsAggregateCall reports whether a call expression denotes an aggregate in
// select-list position. min/max with more than one argument remain scalar
// functions.
func IsAggregateCall(c *expr.Call) (AggKind, bool) {
	k, ok := aggKindByName[strings.ToLower(c.Name)]
	if !ok {
		return 0, false
	}
	switch k {
	case AggCount:
		return k, len(c.Args) <= 1
	default:
		return k, len(c.Args) == 1
	}
}

// AggSpec is one aggregate computation: Kind over Arg (nil for COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Arg  expr.Expr
}

// aggState is one aggregate's state for one group: what the row reference
// folds a row at a time (update), what the pipeline's state columns
// publish (aggColumn.state), and what partial states merge into. count
// and sum serve COUNT/SUM/AVG; the Welford count, mean and m2 serve
// VAR/STDDEV; ext is MIN's or MAX's value so far, NULL before the first.
type aggState struct {
	count int64
	sum   float64
	mean  float64
	m2    float64
	ext   expr.Value
}

// update is the row reference's fold of one argument value.
func (st *aggState) update(kind AggKind, v expr.Value) error {
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	switch kind {
	case AggCount:
		st.count++
	case AggMin, AggMax:
		return foldExt(&st.ext, v, extDir(kind))
	default:
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		st.count++
		st.sum += f
		if kind == AggVar || kind == AggStdDev {
			d := f - st.mean
			st.mean += d / float64(st.count)
			st.m2 += d * (f - st.mean)
		}
	}
	return nil
}

// extDir is the side MIN (−1) or MAX (1) keeps.
func extDir(kind AggKind) int {
	if kind == AggMin {
		return -1
	}
	return 1
}

// foldExt replaces *cur, the running MIN (dir −1) or MAX (dir 1), with v
// when *cur is NULL or v orders on dir's side of it. Ties under
// expr.Compare break by one rule, so the answer does not depend on the
// order values fold or partials merge: −0 orders below 0, so MIN keeps −0
// and MAX keeps 0.
func foldExt(cur *expr.Value, v expr.Value, dir int) error {
	if cur.IsNull() {
		*cur = v
		return nil
	}
	c, err := expr.Compare(v, *cur)
	if err != nil {
		return err
	}
	if c == 0 {
		switch vn, cn := negZero(v), negZero(*cur); {
		case vn && !cn:
			c = -1
		case cn && !vn:
			c = 1
		}
	}
	if c == dir {
		*cur = v
	}
	return nil
}

func negZero(v expr.Value) bool { return v.K == expr.KindFloat && v.F == 0 && math.Signbit(v.F) }

// merge folds another partial state for the same group into st — the
// recombination step of parallel aggregation. COUNT/SUM/AVG merge
// additively, MIN/MAX by comparison under foldExt's tie rule, and
// VAR/STDDEV through the two-sample Welford combination. Merging
// reassociates floating-point addition, so SUM/AVG/VAR/STDDEV results can
// differ between pool sizes in the last few ulps.
func (st *aggState) merge(o *aggState, kind AggKind) error {
	switch kind {
	case AggCount:
		st.count += o.count
	case AggSum, AggAvg, AggVar, AggStdDev:
		if o.count == 0 {
			return nil
		}
		if st.count == 0 {
			*st = *o
			return nil
		}
		na, nb := float64(st.count), float64(o.count)
		delta := o.mean - st.mean
		st.m2 += o.m2 + delta*delta*na*nb/(na+nb)
		st.mean += delta * nb / (na + nb)
		st.sum += o.sum
		st.count += o.count
	case AggMin, AggMax:
		if !o.ext.IsNull() {
			return foldExt(&st.ext, o.ext, extDir(kind))
		}
	}
	return nil
}

func (st *aggState) final(kind AggKind) expr.Value {
	switch kind {
	case AggCount:
		return expr.Int(st.count)
	case AggSum:
		if st.count == 0 {
			return expr.Null()
		}
		return expr.Float(st.sum)
	case AggAvg:
		if st.count == 0 {
			return expr.Null()
		}
		return expr.Float(st.sum / float64(st.count))
	case AggMin, AggMax:
		return st.ext
	case AggVar:
		if st.count < 2 {
			return expr.Null()
		}
		return expr.Float(st.m2 / float64(st.count-1))
	case AggStdDev:
		if st.count < 2 {
			return expr.Null()
		}
		return expr.Float(math.Sqrt(st.m2 / float64(st.count-1)))
	}
	return expr.Null()
}

// appendGroupKey appends one group-key entry and a separator to kb. It is
// the group identity of both engines: two keys land in one group exactly
// when their rendered bytes match. Values render as Value.String() does,
// except that -0 renders as 0: the ±0 that = and expr.Compare equate
// form one group. Every NaN renders as "NaN", so NaNs form one group too,
// as they compare equal under expr.Compare.
func appendGroupKey(kb []byte, v expr.Value) []byte {
	switch v.K {
	case expr.KindNull:
		kb = append(kb, "NULL"...)
	case expr.KindInt:
		kb = strconv.AppendInt(kb, v.I, 10)
	case expr.KindFloat:
		f := v.F
		if f == 0 {
			f = 0 // folds -0
		}
		kb = strconv.AppendFloat(kb, f, 'g', -1, 64)
	case expr.KindString:
		kb = strconv.AppendQuote(kb, v.S)
	default:
		kb = append(kb, v.String()...)
	}
	return append(kb, 0)
}

// aggOutputCols builds the aggregate output column names — "$grp0…$grpN"
// followed by "$agg0…$aggM" — shared by every aggregate operator so the
// planner's post-projection contract lives in one place.
func aggOutputCols(ngroup, nagg int) []string {
	cols := make([]string, 0, ngroup+nagg)
	for i := 0; i < ngroup; i++ {
		cols = append(cols, fmt.Sprintf("$grp%d", i))
	}
	for i := 0; i < nagg; i++ {
		cols = append(cols, fmt.Sprintf("$agg%d", i))
	}
	return cols
}

// HashAggregate groups rows by GroupExprs and computes Aggs per group. Its
// output columns are "$grp0…$grpN" followed by "$agg0…$aggM", which the
// planner's post-projection maps back to user-visible expressions.
type HashAggregate struct {
	Child      Node
	GroupExprs []expr.Expr
	Aggs       []AggSpec
}

type aggGroup struct {
	key    []expr.Value
	states []aggState
}

// Columns implements Node.
func (h *HashAggregate) Columns() []string {
	return aggOutputCols(len(h.GroupExprs), len(h.Aggs))
}
