package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to mean anything: a p75 over 12 samples is one unlucky op.
const minTail = 10

// rank is the 1-based nearest-rank position of the p-quantile (0 < p ≤ 1)
// among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank p-quantile of samples (not modified).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	return s[rank(len(s), p)-1]
}

// tailSamples counts the samples strictly beyond the nearest-rank
// p-quantile of n samples.
func tailSamples(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// highestPercentile is the largest of the candidate percentiles that
// still leaves minTail samples beyond it, or 0 when even the first does
// not.
func highestPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if tailSamples(n, p) >= minTail && p > best {
			best = p
		}
	}
	return best
}

// quartiles returns the three cut points of statistics.quantiles(values,
// n=4) in Python's default "exclusive" method, so spreads printed here
// match the ones computed from the JSON results.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - 4*j
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= n {
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of values, interpolated between the middle pair.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
