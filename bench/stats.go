package main

import (
	"fmt"
	"math"
	"slices"
)

// minTailSamples is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minTailSamples = 10

// rank is the 1-based nearest rank of the p-th percentile (0 < p <= 100)
// of n samples: the smallest rank with at least p% of the samples at or
// below it.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100)), 1), n)
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// method, and how many samples lie beyond that rank.
func nearestRank(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	r := rank(p, len(sorted))
	return sorted[r-1], len(sorted) - r
}

// tailPercentile is nearestRank that refuses a percentile with fewer
// than minBeyond samples beyond it.
func tailPercentile(sorted []float64, p float64, minBeyond int) (float64, error) {
	v, beyond := nearestRank(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// tailReady reports whether n samples put at least minBeyond beyond
// their 99th percentile.
func tailReady(n, minBeyond int) bool {
	return n > 0 && n-rank(99, n) >= minBeyond
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	return quartiles(xs)[1]
}

// quartiles returns the three cut points of xs into four parts by the
// exclusive method (Python's statistics.quantiles default), so spreads
// read the same here and in any script that checks them. A single
// value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		nan := math.NaN()
		return [3]float64{nan, nan, nan}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
