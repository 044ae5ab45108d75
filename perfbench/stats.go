package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// the number of samples ranked above it — the tail the percentile
// rests on. It sorts xs in place; an empty xs yields (0, 0).
func percentile(xs []float64, q float64) (v float64, tail int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], len(xs) - 1 - i
}

// median returns the middle of xs, averaging the two middle values of
// an even count. It sorts xs in place; an empty xs yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// toFloats converts durations to floats in the given unit.
func toFloats(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio divides v by a count, reading 0 for a count of 0.
func ratio(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}
