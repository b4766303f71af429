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
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"weak"

	"datalaws/internal/bloom"
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

// LegalSet answers whether a (group, inputs) combination occurred in the
// original data, preserving relational semantics for point queries (§4.2
// "legal parameter combinations"). Implementations trade memory for
// exactness.
type LegalSet interface {
	Contains(group int64, inputs []float64) bool
	SizeBytes() int
	// Exact reports whether Contains can return false positives.
	Exact() bool
}

// AllowAll is a LegalSet that admits every combination (used when the model
// is trusted to generalize, accepting the relational-semantics violation the
// paper warns about).
type AllowAll struct{}

// Contains implements LegalSet.
func (AllowAll) Contains(int64, []float64) bool { return true }

// SizeBytes implements LegalSet.
func (AllowAll) SizeBytes() int { return 0 }

// Exact implements LegalSet.
func (AllowAll) Exact() bool { return false }

// putKey writes the fixed-width binary key of one (group, inputs)
// combination into b, which keyBuf sized. math.Float64bits keeps -0/0
// distinct, which is fine for legality checks built from the same encoder.
func putKey(b []byte, group int64, inputs []float64) {
	putUint64(b, uint64(group))
	for i, v := range inputs {
		putUint64(b[8+8*i:], math.Float64bits(v))
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

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ExactLegalSet stores every observed combination in a hash set.
type ExactLegalSet struct {
	set map[string]struct{}
}

// Contains implements LegalSet. The key is built on the stack (for up to 7
// inputs) and the string conversion in the map probe is elided by the
// compiler, so the model scan's per-combination legality check is
// allocation-free and safe under concurrent scans sharing a cached set.
func (s *ExactLegalSet) Contains(group int64, inputs []float64) bool {
	var arr [64]byte
	b := keyBuf(&arr, len(inputs))
	putKey(b, group, inputs)
	_, ok := s.set[string(b)]
	return ok
}

// SizeBytes implements LegalSet.
func (s *ExactLegalSet) SizeBytes() int {
	n := 0
	for k := range s.set {
		n += len(k) + 16 // key bytes + map overhead estimate
	}
	return n
}

// Exact implements LegalSet.
func (s *ExactLegalSet) Exact() bool { return true }

// BloomLegalSet approximates the combination set with a Bloom filter.
type BloomLegalSet struct {
	f *bloom.Filter
}

// Contains implements LegalSet, stack-allocating the hash parts for up to 7
// inputs (see ExactLegalSet.Contains).
func (s *BloomLegalSet) Contains(group int64, inputs []float64) bool {
	var arr [8]uint64
	var parts []uint64
	if 1+len(inputs) <= len(arr) {
		parts = arr[:1+len(inputs)]
	} else {
		parts = make([]uint64, 1+len(inputs))
	}
	parts[0] = uint64(group)
	for i, v := range inputs {
		parts[1+i] = math.Float64bits(v)
	}
	return s.f.ContainsUint64s(parts...)
}

// SizeBytes implements LegalSet.
func (s *BloomLegalSet) SizeBytes() int { return s.f.SizeBytes() }

// Exact implements LegalSet.
func (s *BloomLegalSet) Exact() bool { return false }

// FPRate returns the theoretical false-positive rate at the current fill.
func (s *BloomLegalSet) FPRate() float64 { return s.f.EstimatedFPRate() }

// BuildLegalSet scans one view of the table and records every observed
// (group, inputs) combination. groupCol may be "" for ungrouped models. The
// exact set is an empty domain state extended over the view; with useBloom,
// a Bloom filter sized for fpRate replaces it.
func BuildLegalSet(v *table.ChunkView, groupCol string, inputCols []string, useBloom bool, fpRate float64) (LegalSet, error) {
	if !useBloom {
		_, ls, err := newDomainState(groupCol, inputCols, 0, &ExactLegalSet{}).extend(v).result()
		return ls, err
	}
	group, inputs, err := v.Numeric(groupCol, inputCols)
	if err != nil {
		return nil, err
	}
	n := v.Rows()
	f := bloom.New(n, fpRate)
	parts := make([]uint64, 1+len(inputCols))
	for r := 0; r < n; r++ {
		if group != nil {
			parts[0] = uint64(group[r])
		} else {
			parts[0] = 0
		}
		for i := range inputs {
			parts[1+i] = math.Float64bits(inputs[i][r])
		}
		f.AddUint64s(parts...)
	}
	return &BloomLegalSet{f: f}, nil
}

// ExportLegalCombos flattens an exact legal set for the replication wire:
// one group key plus width input values per combination, inputs
// concatenated row-major. ok is false for inexact sets (Bloom, AllowAll) —
// their combinations cannot be enumerated, so replicas receiving such a
// model fall back to AllowAll.
func ExportLegalCombos(ls LegalSet) (groups []int64, inputs []float64, width int, ok bool) {
	els, isExact := ls.(*ExactLegalSet)
	if !isExact {
		return nil, nil, 0, false
	}
	for k := range els.set {
		w := len(k)/8 - 1
		if width == 0 {
			width = w
		}
		groups = append(groups, int64(getUint64(k)))
		for i := 0; i < w; i++ {
			inputs = append(inputs, math.Float64frombits(getUint64(k[8+8*i:])))
		}
	}
	return groups, inputs, width, true
}

// LegalSetFromCombos rebuilds an exact legal set from ExportLegalCombos
// output — the replica-side constructor, no table scan involved.
func LegalSetFromCombos(groups []int64, inputs []float64, width int) LegalSet {
	set := make(map[string]struct{}, len(groups))
	var arr [64]byte
	b := keyBuf(&arr, width)
	for i, g := range groups {
		putKey(b, g, inputs[i*width:(i+1)*width])
		set[string(b)] = struct{}{}
	}
	return &ExactLegalSet{set: set}
}

func getUint64(s string) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(s[i]) << (8 * i)
	}
	return v
}

// domainState is one immutable enumeration of a table's model inputs over
// its first rows rows: the sorted domain of each input and the exact set of
// observed (group, inputs) combinations. It is the one enumeration routine:
// DomainsFor and the exact BuildLegalSet extend an empty state over a whole
// view, and Cache extends its last state over the rows appended since.
type domainState struct {
	t           weak.Pointer[table.Table] // the table described; weak, so a dropped table is not kept alive
	rows        int
	group       string // "" when ungrouped or when no legal set is tracked
	inputs      []string
	maxDistinct int // per domain; 0 enumerates no domains

	domains  []Domain
	bad      []bool   // per input, once not enumerable (NULL, non-numeric, > maxDistinct values): for good
	legal    LegalSet // nil when not tracked; extended only while an *ExactLegalSet
	legalErr error    // what BuildLegalSet reports for these rows
}

func newDomainState(group string, inputs []string, maxDistinct int, legal LegalSet) *domainState {
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
// same table at least as new, reading only the rows past s.rows. s is never
// modified: the successor shares its domain slices and legal map unless a
// new value or combination appears, and then copies them, so a ModelScan
// holding s's artifacts never sees them change. NumericFrom checks its
// columns over the whole view, so errors read exactly as a scratch build's.
func (s *domainState) extend(v *table.ChunkView) *domainState {
	n := *s
	n.rows = v.Rows()
	group, cols, err := v.NumericFrom(s.group, s.inputs, s.rows)
	if s.maxDistinct > 0 {
		n.domains, n.bad = slices.Clone(s.domains), slices.Clone(s.bad)
		for i, in := range s.inputs {
			if n.bad[i] {
				continue
			}
			// When some column is unusable, each input is read alone.
			var col []float64
			if err == nil {
				col = cols[i]
			} else if _, one, ierr := v.NumericFrom("", []string{in}, s.rows); ierr == nil {
				col = one[0]
			} else {
				n.bad[i] = true
				continue
			}
			n.domains[i].Vals, n.bad[i] = withValues(s.domains[i].Vals, col, s.maxDistinct)
		}
	}
	if set, ok := s.legal.(*ExactLegalSet); ok {
		if n.legalErr = err; err == nil {
			n.legal = set.with(n.rows-s.rows, group, cols)
		}
	}
	return &n
}

// withValues returns the sorted domain old extended by the values of col:
// old itself when col adds none, else a new slice. bad reports more than
// maxDistinct values.
func withValues(old, col []float64, maxDistinct int) (vals []float64, bad bool) {
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
		return old, false
	}
	vals = append(slices.Clip(old), slices.Collect(maps.Keys(fresh))...)
	sort.Float64s(vals)
	return vals, false
}

// with returns s extended by the combinations of n rows (group nil when
// ungrouped): s itself when they add none, else a new set. Probes build the
// key on the stack, as Contains does; s is never modified.
func (s *ExactLegalSet) with(n int, group []int64, inputs [][]float64) *ExactLegalSet {
	var keyArr [64]byte
	var rowArr [7]float64
	key := keyBuf(&keyArr, len(inputs))
	row := slices.Grow(rowArr[:0], len(inputs))[:len(inputs)]
	var fresh map[string]struct{}
	for r := 0; r < n; r++ {
		var g int64
		if group != nil {
			g = group[r]
		}
		for i := range inputs {
			row[i] = inputs[i][r]
		}
		putKey(key, g, row)
		if _, ok := s.set[string(key)]; ok {
			continue
		}
		if _, ok := fresh[string(key)]; !ok {
			if fresh == nil {
				fresh = map[string]struct{}{}
			}
			fresh[string(key)] = struct{}{}
		}
	}
	if fresh == nil {
		return s
	}
	if len(s.set) > 0 {
		merged := maps.Clone(s.set)
		maps.Copy(merged, fresh)
		fresh = merged
	}
	return &ExactLegalSet{set: fresh}
}

// result returns the state's domains and legal set, or the error a scratch
// DomainsFor (checked first) or BuildLegalSet reports for the same rows.
func (s *domainState) result() ([]Domain, LegalSet, error) {
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
