package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		sorted     []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{[]float64{7}, 50, 7, 0},
		{[]float64{1, 2, 3, 4}, 50, 2, 2},
		{[]float64{1, 2, 3, 4, 5}, 50, 3, 2},
		{hundred, 99, 99, 1},
		{hundred, 100, 100, 0},
		{hundred, 1, 1, 99},
		{hundred, 0.5, 1, 99},
	} {
		got, beyond := nearestRank(tc.sorted, tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("nearestRank(%d samples, p%g) = %g, %d beyond; want %g, %d beyond", len(tc.sorted), tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, _ := nearestRank(nil, 50); !math.IsNaN(v) {
		t.Errorf("nearestRank of no samples = %g, want NaN", v)
	}
}

// TestTailPercentileRefusesThinTail pins the p99 rule: a tail percentile
// needs at least minTailSamples samples beyond it, so p99 needs 1000.
func TestTailPercentileRefusesThinTail(t *testing.T) {
	for _, n := range []int{1, 10, 100, 999, 1000, 1009, 2000} {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		_, err := tailPercentile(sorted, 99, minTailSamples)
		if wantOK := n >= 1000; (err == nil) != wantOK {
			t.Errorf("p99 of %d samples: err = %v, want accepted = %t", n, err, wantOK)
		}
		if tailReady(n, minTailSamples) != (err == nil) {
			t.Errorf("tailReady(%d) = %t, but tailPercentile err = %v", n, tailReady(n, minTailSamples), err)
		}
	}
	if v, err := tailPercentile([]float64{4, 5}, 99, 0); err != nil || v != 5 {
		t.Errorf("p99 with no tail requirement = %g, %v; want 5, nil", v, err)
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(data, n=4), which the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{8}, [3]float64{8, 8, 8}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestSlowdownCapsThePingPong pins the host slowdown rule: the
// ping-pong's median slowdown, but at most maxPingOverSort times the
// sort's.
func TestSlowdownCapsThePingPong(t *testing.T) {
	at := func(ping, sort float64) calibration {
		return calibration{pingMs: ping * pingRefMs, sortMs: sort * sortRefMs}
	}
	for _, tc := range []struct {
		name string
		cs   []calibration
		want float64
	}{
		{"quiet", []calibration{at(1, 1)}, 1},
		{"slow phase", []calibration{at(1.5, 1.3)}, 1.5},
		{"ping-pong alone slow", []calibration{at(3, 1)}, maxPingOverSort},
		{"medians", []calibration{at(1.2, 1), at(9, 1), at(1.4, 9)}, 1.25},
	} {
		if got := slowdown(tc.cs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: slowdown = %g, want %g", tc.name, got, tc.want)
		}
	}
}
