// Package aqp implements approximate query processing from captured models —
// the paper's §4.2. A ModelScan regenerates tuples from a model and its
// parameter table without touching the stored measurements (zero-IO scans);
// enumerable-column detection and legal-combination filters solve the
// parameter-space enumeration challenge; analytic aggregate solutions handle
// linear models without materializing the grid; and the approximate planner
// substitutes these for raw scans under APPROX SELECT, annotating outputs
// with prediction-interval error bounds when WITH ERROR is requested.
package aqp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"weak"

	"datalaws/internal/table"
)

// DefaultMaxDistinct bounds how many distinct values a column may have and
// still count as enumerable. The paper's ν column has 4; timestamps in a
// bounded window may have thousands.
const DefaultMaxDistinct = 10000

// EnumerableValues returns the sorted distinct values of a complete numeric
// column if there are at most maxDistinct of them; ok is false otherwise
// (non-numeric, NULL-bearing, or high-cardinality columns do not
// enumerate). This implements §4.2's "if a parameter column is enumerable,
// we can use it without actually loading its values" detection — we load
// once at plan time and remember the domain. The view is immutable, so
// enumeration is safe against concurrent appends.
func EnumerableValues(v *table.ChunkView, col string, maxDistinct int) (vals []float64, ok bool) {
	doms, err := DomainsFor(v, []string{col}, maxDistinct)
	if err != nil {
		return nil, false
	}
	return doms[0].Vals, true
}

// Domain is the enumerated value set of one input column.
type Domain struct {
	Col  string
	Vals []float64
}

// DomainsFor enumerates every model input column of one view of a table: an
// empty domain state extended over the whole view.
func DomainsFor(v *table.ChunkView, cols []string, maxDistinct int) ([]Domain, error) {
	if maxDistinct <= 0 {
		maxDistinct = DefaultMaxDistinct
	}
	doms, _, err := newDomainState("", cols, maxDistinct, nil).extend(v).result()
	return doms, err
}

// GridSize returns the number of input combinations in the cross product.
func GridSize(domains []Domain) int {
	n := 1
	for _, d := range domains {
		n *= len(d.Vals)
	}
	return n
}

// putKey writes the fixed-width binary key of one (group, inputs)
// combination into b, which keyBuf sized. math.Float64bits keeps -0/0
// distinct, which is fine for legality checks built from the same encoder.
func putKey(b []byte, group int64, inputs []float64) {
	binary.LittleEndian.PutUint64(b, uint64(group))
	for i, v := range inputs {
		binary.LittleEndian.PutUint64(b[8+8*i:], math.Float64bits(v))
	}
}

// keyBuf returns a key buffer for n inputs: arr itself up to 7 inputs, so
// probes with string(b) allocate nothing, a heap slice beyond.
func keyBuf(arr *[64]byte, n int) []byte {
	if need := 8 + 8*n; need <= len(arr) {
		return arr[:need]
	}
	return make([]byte, 8+8*n)
}

// ExactLegalSet is the set of (group, inputs) combinations that occur in a
// table's rows. Point queries and model scans answer only for these, which
// preserves relational semantics (§4.2 "legal parameter combinations").
type ExactLegalSet struct {
	set map[string]struct{}
}

// Contains reports whether the combination occurred. The key is built on the
// stack (for up to 7 inputs) and the string conversion in the map probe is
// elided by the compiler, so the model scan's per-combination legality check
// is allocation-free and safe under concurrent scans sharing a cached set.
func (s *ExactLegalSet) Contains(group int64, inputs []float64) bool {
	var arr [64]byte
	b := keyBuf(&arr, len(inputs))
	putKey(b, group, inputs)
	_, ok := s.set[string(b)]
	return ok
}

// SizeBytes estimates the set's memory footprint.
func (s *ExactLegalSet) SizeBytes() int {
	n := 0
	for k := range s.set {
		n += len(k) + 16 // key bytes + map overhead estimate
	}
	return n
}

// BuildLegalSet scans one view of the table and records every observed
// (group, inputs) combination. groupCol may be "" for ungrouped models. It is
// an empty domain state extended over the view.
func BuildLegalSet(v *table.ChunkView, groupCol string, inputCols []string) (*ExactLegalSet, error) {
	_, ls, err := newDomainState(groupCol, inputCols, 0, &ExactLegalSet{}).extend(v).result()
	return ls, err
}

// Increment is what a run of a table's rows adds to a domain state: the
// input values and (group, inputs) combinations the state lacked, and the
// enumeration status after them. The primary's Cache derives increments
// from appended rows; a replica, which holds no rows, applies the ones its
// primary ships (Feed, Cache.Apply).
type Increment struct {
	From, To int         // the table rows the state covers before and after
	Values   [][]float64 // per input, new values sorted and distinct; nil when none
	Bad      []bool      // per input, not enumerable (NULLs, not numeric, > DefaultMaxDistinct values): for good
	// Groups and Inputs are the new combinations: a group key and Width
	// input values each, the inputs row-major.
	Groups []int64
	Inputs []float64
	Width  int
	Err    string // what a from-zero BuildLegalSet reports for the rows; "" for no error
}

// domainState is one immutable enumeration of a table's model inputs over
// its first rows rows: the sorted domain of each input and the exact set of
// observed (group, inputs) combinations. It is the one enumeration routine:
// DomainsFor and BuildLegalSet extend an empty state over a whole view,
// Cache extends its last state over the rows appended since, and a replica
// extends its state by the increments its primary ships.
type domainState struct {
	t           weak.Pointer[table.Table] // the table described; weak, so a dropped table is not kept alive
	rows        int                       // rows of t covered
	covered     int                       // rows of the source table covered: rows on a primary, the primary's on a replica (its stub holds none)
	group       string                    // "" when ungrouped or when no legal set is tracked
	inputs      []string
	maxDistinct int // per domain; 0 enumerates no domains

	domains  []Domain
	bad      []bool         // per input, once not enumerable (NULL, non-numeric, > maxDistinct values): for good
	legal    *ExactLegalSet // nil when not tracked
	legalErr error          // what BuildLegalSet reports for these rows
}

func newDomainState(group string, inputs []string, maxDistinct int, legal *ExactLegalSet) *domainState {
	st := &domainState{group: group, inputs: inputs, maxDistinct: maxDistinct, legal: legal, domains: make([]Domain, len(inputs))}
	for i, c := range inputs {
		st.domains[i].Col = c
	}
	if maxDistinct > 0 {
		st.bad = make([]bool, len(inputs))
	}
	return st
}

// extend returns the successor of s covering every row of v, a view of the
// same table at least as new, reading only the rows past s.rows.
func (s *domainState) extend(v *table.ChunkView) *domainState {
	inc := s.diff(v)
	n := s.apply(&inc)
	n.rows = v.Rows()
	return n
}

// diff returns the increment the rows of v past s.rows add to s, v being a
// view of the same table at least as new. NumericFrom checks its columns
// over the whole view, so errors read exactly as a scratch build's.
func (s *domainState) diff(v *table.ChunkView) Increment {
	inc := Increment{From: s.rows, To: v.Rows(), Bad: s.bad, Width: len(s.inputs)}
	group, cols, err := v.NumericFrom(s.group, s.inputs, s.rows)
	for i, in := range s.inputs {
		if s.maxDistinct == 0 || s.bad[i] {
			continue
		}
		// When some column is unusable, each input is read alone.
		var vals []float64
		bad := err != nil
		if !bad {
			vals, bad = freshValues(s.domains[i].Vals, cols[i], s.maxDistinct)
		} else if _, one, ierr := v.NumericFrom("", []string{in}, s.rows); ierr == nil {
			vals, bad = freshValues(s.domains[i].Vals, one[0], s.maxDistinct)
		}
		switch {
		case bad:
			inc.Bad = slices.Clone(inc.Bad)
			inc.Bad[i] = true
		case vals != nil:
			if inc.Values == nil {
				inc.Values = make([][]float64, len(s.inputs))
			}
			inc.Values[i] = vals
		}
	}
	if s.legal != nil {
		if err != nil {
			inc.Err = err.Error()
		} else {
			inc.Groups, inc.Inputs = s.legal.fresh(inc.To-inc.From, group, cols)
		}
	}
	return inc
}

// apply returns s extended by inc. s is never modified: the successor shares
// its domain slices and legal map unless inc adds to them, and then copies
// them, so a ModelScan holding s's artifacts never sees them change.
func (s *domainState) apply(inc *Increment) *domainState {
	n := *s
	n.bad = inc.Bad
	if inc.Values != nil {
		n.domains = slices.Clone(s.domains)
	}
	for i, vals := range inc.Values {
		if len(vals) > 0 && !n.bad[i] {
			n.domains[i].Vals = mergeValues(s.domains[i].Vals, vals)
		}
	}
	if n.legalErr = nil; inc.Err != "" {
		n.legalErr = errors.New(inc.Err)
	} else if s.legal != nil {
		n.legal = s.legal.with(inc.Groups, inc.Inputs, inc.Width)
	}
	n.covered = inc.To
	return &n
}

// check reports why a shipped increment cannot extend s: it must continue
// from the primary rows s covers, lay out its combinations in the state's
// width, and ship per-input values sorted and distinct.
func (s *domainState) check(inc *Increment) error {
	w := len(s.inputs)
	switch {
	case inc.From != s.covered || inc.To < inc.From:
		return fmt.Errorf("aqp: increment covers rows %d to %d, state holds %d", inc.From, inc.To, s.covered)
	case inc.Width != w || len(inc.Inputs) != len(inc.Groups)*w:
		return fmt.Errorf("aqp: %d groups of width %d with %d inputs, for %d model inputs", len(inc.Groups), inc.Width, len(inc.Inputs), w)
	case len(inc.Bad) != w || len(inc.Values) != 0 && len(inc.Values) != w:
		return fmt.Errorf("aqp: increment has %d statuses and %d value lists for %d inputs", len(inc.Bad), len(inc.Values), w)
	}
	for i, vals := range inc.Values {
		for j, x := range vals {
			if math.IsNaN(x) || j > 0 && vals[j-1] >= x {
				return fmt.Errorf("aqp: values of input %q are not sorted and distinct", s.inputs[i])
			}
		}
	}
	return nil
}

// freshValues returns the sorted values of col missing from the sorted
// domain old, nil when there are none; bad reports more than maxDistinct
// values in all.
func freshValues(old, col []float64, maxDistinct int) (vals []float64, bad bool) {
	var fresh map[float64]struct{}
	for _, x := range col {
		if j := sort.SearchFloat64s(old, x); j < len(old) && old[j] == x {
			continue
		}
		if fresh == nil {
			fresh = map[float64]struct{}{}
		}
		if fresh[x] = struct{}{}; len(old)+len(fresh) > maxDistinct {
			return nil, true
		}
	}
	if fresh == nil {
		return nil, false
	}
	return slices.Sorted(maps.Keys(fresh)), false
}

// mergeValues returns a new sorted slice holding the values of the sorted
// slices a and b, each once.
func mergeValues(a, b []float64) []float64 {
	vals := append(slices.Clip(a), b...)
	sort.Float64s(vals)
	return slices.Compact(vals)
}

// fresh returns the distinct combinations of n rows (group nil when
// ungrouped) missing from s, one group key and len(inputs) values each.
// Probes build the key on the stack, as Contains does.
func (s *ExactLegalSet) fresh(n int, group []int64, inputs [][]float64) (groups []int64, flat []float64) {
	var keyArr [64]byte
	var rowArr [7]float64
	key := keyBuf(&keyArr, len(inputs))
	row := slices.Grow(rowArr[:0], len(inputs))[:len(inputs)]
	var seen map[string]struct{}
	for r := 0; r < n; r++ {
		var g int64
		if group != nil {
			g = group[r]
		}
		for i := range inputs {
			row[i] = inputs[i][r]
		}
		putKey(key, g, row)
		_, old := s.set[string(key)]
		if _, dup := seen[string(key)]; old || dup {
			continue
		}
		if seen == nil {
			seen = map[string]struct{}{}
		}
		seen[string(key)] = struct{}{}
		groups, flat = append(groups, g), append(flat, row...)
	}
	return groups, flat
}

// with returns s extended by the combinations groups and inputs (width
// inputs each, row-major): s itself when there are none, else a new set. s
// is never modified.
func (s *ExactLegalSet) with(groups []int64, inputs []float64, width int) *ExactLegalSet {
	if len(groups) == 0 {
		return s
	}
	set := make(map[string]struct{}, len(s.set)+len(groups))
	maps.Copy(set, s.set)
	var arr [64]byte
	key := keyBuf(&arr, width)
	for i, g := range groups {
		putKey(key, g, inputs[i*width:(i+1)*width])
		set[string(key)] = struct{}{}
	}
	return &ExactLegalSet{set: set}
}

// result returns the state's domains and legal set, or the error a scratch
// DomainsFor (checked first) or BuildLegalSet reports for the same rows.
func (s *domainState) result() ([]Domain, *ExactLegalSet, error) {
	for i, bad := range s.bad {
		if bad {
			return nil, nil, fmt.Errorf("aqp: column %q is not enumerable (more than %d distinct values)", s.inputs[i], s.maxDistinct)
		}
	}
	if s.legalErr != nil {
		return nil, nil, s.legalErr
	}
	return s.domains, s.legal, nil
}
