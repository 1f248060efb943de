package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one slow block, not a percentile.
const minBeyond = 10

// tail returns the value at the highest percentile at most want (in
// (0,100)) that leaves at least minBeyond samples above it, and that
// percentile. With too few samples for any such percentile it returns the
// median and 50, so a tiny run still reports a number. Samples need not
// be sorted.
func tail(samples []float64, want float64) (value, pct float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// Rank k (1-based, nearest rank) leaves n-k samples beyond it.
	k := int(math.Ceil(want / 100 * float64(n)))
	if n-k < minBeyond {
		k = n - minBeyond
	}
	if half := (n + 1) / 2; k < half {
		return median(s), 50
	}
	return s[k-1], 100 * float64(k) / float64(n)
}

// median returns the middle of the samples (mean of the two middle ones
// for an even count). Samples need not be sorted.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// share returns part/whole, or 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
