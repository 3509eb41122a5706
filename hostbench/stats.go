package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the default of numpy and of R type 7): rank h = (n-1)q,
// value x[⌊h⌋] + (h-⌊h⌋)(x[⌊h⌋+1]-x[⌊h⌋]) over the sorted values. It
// returns NaN for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := float64(len(s)-1) * q
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// histQuantile returns the q-quantile of a runtime/metrics histogram:
// the midpoint of the bucket holding the ⌈q·total⌉-th observation, or its
// finite edge when the other edge is infinite. buckets has one more entry
// than counts. It returns 0 for an empty histogram.
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen < rank {
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return (lo + hi) / 2
	}
	return buckets[len(buckets)-1]
}
