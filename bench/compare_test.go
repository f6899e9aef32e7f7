package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	higher := metricSpec{Name: "checks_per_s", Better: "higher", Bound: 0.1}
	lower := metricSpec{Name: "check_ms_p50", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{70, 130, 80, 120, 100, 90, 110, 60, 140, 100}
	for _, tc := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"same runs", higher, base, base, unchanged},
		{"small noise", higher, base, scale(base, 1.01), unchanged},
		{"higher is better and rose", higher, base, scale(base, 1.2), improved},
		{"lower is better and fell", lower, base, scale(base, 0.8), improved},
		{"higher is better and fell past the bound", higher, base, scale(base, 0.85), regressed},
		{"lower is better and rose past the bound", lower, base, scale(base, 1.15), regressed},
		{"worse but within the bound", lower, base, scale(base, 1.05), unchanged},
		{"spread wider than the bound", higher, wide, scale(wide, 1.02), unresolved},
		{"spread wider than the bound, every change run better", higher, wide, scale(base, 1.5), improved},
		{"better median but too few wins", higher, base, []float64{130, 95, 95, 130, 95, 130, 95, 130, 130, 95}, unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := classify(tc.m, tc.parent, tc.change); got.outcome != tc.want {
				t.Errorf("outcome = %s (worse %+.3f, wins %d/%d, spread %.3f), want %s", got.outcome, got.worse, got.wins, got.pairs, got.spread, tc.want)
			}
		})
	}
}

// TestCompareExitsOnFailedChecks pins compare's verdict: it fails on a
// regression and on any rise in the share of failed checks, not on an
// unchanged or improved set.
func TestCompareExitsOnFailedChecks(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "checks_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "findings", Unit: "count", Better: "higher", Bound: 0.25},
	}}
	set := func(rate float64, failed int) map[string][]record {
		var recs []record
		for seed := int64(1); seed <= 10; seed++ {
			recs = append(recs, record{Workload: "paper-go", Seed: seed, Result: &result{
				Attempted: 1000, Failed: failed,
				Metrics: map[string]metric{"checks_per_s": {rate + float64(seed%3), "1/s"}, "findings": {56, "count"}},
			}})
		}
		return byWorkload(recs)
	}
	for _, tc := range []struct {
		name          string
		parent, chang map[string][]record
		wantFail      bool
		wantOut       string
	}{
		{"same commit", set(100, 0), set(100, 0), false, "unchanged"},
		{"faster", set(100, 0), set(150, 0), false, "improved"},
		{"slower", set(100, 0), set(50, 0), true, "regressed"},
		{"failed checks rose", set(100, 0), set(100, 1), true, "failed checks rose"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := compare(&out, spec, tc.parent, tc.chang); got != tc.wantFail {
				t.Errorf("compare fails = %t, want %t\n%s", got, tc.wantFail, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}
