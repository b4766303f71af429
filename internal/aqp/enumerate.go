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
	"math"
	"sort"

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
	if maxDistinct <= 0 {
		maxDistinct = DefaultMaxDistinct
	}
	_, cols, err := v.Numeric("", []string{col})
	if err != nil {
		return nil, false
	}
	set := map[float64]struct{}{}
	for _, x := range cols[0] {
		set[x] = struct{}{}
		if len(set) > maxDistinct {
			return nil, false
		}
	}
	out := make([]float64, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out, true
}

// Domain is the enumerated value set of one input column.
type Domain struct {
	Col  string
	Vals []float64
}

// DomainsFor enumerates every model input column of one view of a table.
func DomainsFor(v *table.ChunkView, cols []string, maxDistinct int) ([]Domain, error) {
	out := make([]Domain, len(cols))
	for i, c := range cols {
		vals, ok := EnumerableValues(v, c, maxDistinct)
		if !ok {
			return nil, fmt.Errorf("aqp: column %q is not enumerable (more than %d distinct values)", c, maxDistinct)
		}
		out[i] = Domain{Col: c, Vals: vals}
	}
	return out, nil
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

func comboKey(group int64, inputs []float64) string {
	// Fixed-width binary key; math.Float64bits keeps -0/0 distinct, which is
	// fine for legality checks built from the same encoder.
	b := make([]byte, 8+8*len(inputs))
	putUint64(b, uint64(group))
	for i, v := range inputs {
		putUint64(b[8+8*i:], math.Float64bits(v))
	}
	return string(b)
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
	need := 8 + 8*len(inputs)
	var b []byte
	if need <= len(arr) {
		b = arr[:need]
	} else {
		b = make([]byte, need)
	}
	putUint64(b, uint64(group))
	for i, v := range inputs {
		putUint64(b[8+8*i:], math.Float64bits(v))
	}
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
// (group, inputs) combination. groupCol may be "" for ungrouped models.
// With useBloom, a Bloom filter sized for fpRate replaces the exact set.
func BuildLegalSet(v *table.ChunkView, groupCol string, inputCols []string, useBloom bool, fpRate float64) (LegalSet, error) {
	group, inputs, err := v.Numeric(groupCol, inputCols)
	if err != nil {
		return nil, err
	}
	n := v.Rows()
	if useBloom {
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
	set := make(map[string]struct{}, n)
	row := make([]float64, len(inputCols))
	for r := 0; r < n; r++ {
		var g int64
		if group != nil {
			g = group[r]
		}
		for i := range inputs {
			row[i] = inputs[i][r]
		}
		set[comboKey(g, row)] = struct{}{}
	}
	return &ExactLegalSet{set: set}, nil
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
	row := make([]float64, width)
	for i, g := range groups {
		copy(row, inputs[i*width:(i+1)*width])
		set[comboKey(g, row)] = struct{}{}
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
