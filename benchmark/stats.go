package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile reads the p-th percentile (0 < p < 100) from an ascending
// slice by nearest rank; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median is the 50th percentile of xs in any order.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// supportedTail names the highest candidate percentile that still has at
// least ten samples beyond it in a sample of n; ok is false when even the
// lowest candidate has fewer. A tail read from fewer samples is one slow
// operation, not a property of the system.
func supportedTail(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), so
// compare's spread matches the spread the benchmark's contract is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return asc[0], asc[0], asc[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return asc[j-1] + frac*(asc[j]-asc[j-1])
	}
	return at(1), at(2), at(3)
}
