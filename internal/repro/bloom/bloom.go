// Package bloom implements a Bloom filter with double hashing over FNV-1a.
// Repro T2i uses it to measure the paper's suggestion for the set of legal
// parameter combinations (§4.2: "generate a compressed lookup structure
// (e.g. Bloom filters) to encode all legal parameter combinations") against
// the exact set the planner keeps.
package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Filter is a fixed-size Bloom filter. Use New to size it for an expected
// element count and target false-positive rate.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    int    // elements added
}

// New creates a filter sized for expectedN insertions at the given target
// false-positive rate (0 < fpRate < 1). The standard sizing formulas
// m = −n·ln(p)/ln(2)² and k = m/n·ln(2) apply.
func New(expectedN int, fpRate float64) *Filter {
	if expectedN < 1 {
		expectedN = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := uint64(math.Ceil(-float64(expectedN) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(expectedN) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// hash2 derives two independent 64-bit hashes of key.
func hash2(key []byte) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write(key)
	a := h1.Sum64()
	h2 := fnv.New64a()
	var pre [8]byte
	binary.LittleEndian.PutUint64(pre[:], a)
	h2.Write(pre[:])
	h2.Write(key)
	b := h2.Sum64()
	if b%2 == 0 { // keep the stride odd so it cycles all positions
		b++
	}
	return a, b
}

// Add inserts key.
func (f *Filter) Add(key []byte) {
	a, b := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// Contains reports whether key may be present (false positives possible,
// false negatives impossible).
func (f *Filter) Contains(key []byte) bool {
	a, b := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// AddUint64s inserts a composite integer key.
func (f *Filter) AddUint64s(parts ...uint64) {
	buf := make([]byte, 8*len(parts))
	for i, p := range parts {
		binary.LittleEndian.PutUint64(buf[i*8:], p)
	}
	f.Add(buf)
}

// ContainsUint64s tests a composite integer key.
func (f *Filter) ContainsUint64s(parts ...uint64) bool {
	buf := make([]byte, 8*len(parts))
	for i, p := range parts {
		binary.LittleEndian.PutUint64(buf[i*8:], p)
	}
	return f.Contains(buf)
}

// SizeBytes returns the filter's bit-array footprint.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// N returns the number of inserted elements.
func (f *Filter) N() int { return f.n }

// EstimatedFPRate returns the theoretical false-positive rate at the current
// fill: (1 − e^{−kn/m})^k.
func (f *Filter) EstimatedFPRate() float64 {
	return math.Pow(1-math.Exp(-float64(f.k)*float64(f.n)/float64(f.m)), float64(f.k))
}
