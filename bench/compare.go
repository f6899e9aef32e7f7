package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want higher or lower", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// Outcomes of one workload × metric cell.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// cell is the comparison of one end-to-end metric on one workload
// between the parent's runs and the change's.
type cell struct {
	parent, change [3]float64
	// wins counts the pairs the change won, of pairs alternating pairs;
	// ties count for neither side.
	wins, pairs int
	// worse is how much worse the change's median is than the parent's,
	// as a share of the parent's (negative when it is better); spread is
	// the parent's interquartile range as a share of its median.
	worse, spread float64
	outcome       string
}

// classify applies the rule of the choosing-metrics guide, section 8:
// a change improved a metric when it won at least nine tenths of the
// pairs and the medians differ by more than the parent's interquartile
// range; it regressed when its median is worse by more than the bound.
// Otherwise the metric is unresolved when the parent's own spread is
// wider than the bound, unless every change run beats every parent run,
// and unchanged when it is not.
func classify(m metricSpec, parent, change []float64) cell {
	c := cell{parent: quartiles(parent), change: quartiles(change), pairs: min(len(parent), len(change))}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range c.pairs {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	pm, cm := c.parent[1], c.change[1]
	iqr := c.parent[2] - c.parent[0]
	c.worse = (cm - pm) / pm
	if m.Better == "higher" {
		c.worse = -c.worse
	}
	c.spread = iqr / pm
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && c.worse < 0 && math.Abs(cm-pm) > iqr:
		c.outcome = improved
	case c.worse > m.Bound:
		c.outcome = regressed
	case c.spread > m.Bound && !allBetter(m, change, parent):
		c.outcome = unresolved
	default:
		c.outcome = unchanged
	}
	return c
}

// allBetter reports whether every run of the change reads better than
// every run of the parent.
func allBetter(m metricSpec, change, parent []float64) bool {
	if m.Better == "higher" {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}

// runCompare is `bench compare [-spec FILE] A/ B/`: it compares the
// untraced records of a parent (A) and a change (B) per workload and
// end-to-end metric, and exits 1 on any regression or any rise in the
// share of failed checks.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec FILE] PARENT_DIR CHANGE_DIR")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	var sets [2]map[string][]record
	for i, dir := range fs.Args() {
		recs, err := readRecords(dir)
		if err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
		sets[i] = byWorkload(recs)
	}
	if compare(stdout, spec, sets[0], sets[1]) {
		return 1
	}
	return 0
}

// byWorkload groups untraced records by workload, each group in seed
// order, so the i-th runs of two sets form a pair.
func byWorkload(recs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range recs {
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		slices.SortStableFunc(rs, func(a, b record) int { return cmp.Compare(a.Seed, b.Seed) })
	}
	return out
}

// compare writes the comparison table and reports whether the change
// fails: any regressed cell, or a larger share of failed checks.
func compare(w io.Writer, spec *benchSpec, parent, change map[string][]record) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tworse\twins\tbound\toutcome")
	fails := false
	var notes []string
	for _, wl := range workloadNames() {
		a, b := parent[wl], change[wl]
		if len(a) == 0 || len(b) == 0 {
			if len(a)+len(b) > 0 {
				notes = append(notes, fmt.Sprintf("%s: runs in only one set", wl))
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			c := classify(m, values(a, m.Name), values(b, m.Name))
			fails = fails || c.outcome == regressed
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n",
				wl, m.Name, c.parent[1], c.parent[0], c.parent[2], m.Unit, c.change[1], c.change[0], c.change[2],
				100*c.worse, c.wins, c.pairs, 100*m.Bound, c.outcome)
		}
		fa, fb := failedFrac(a), failedFrac(b)
		if fb > fa {
			fails = true
			notes = append(notes, fmt.Sprintf("%s: failed checks rose from %.4f to %.4f", wl, fa, fb))
		}
		if d := findingsDiffer(a, b); d != "" {
			notes = append(notes, wl+": "+d)
		}
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	return fails
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Result.Metrics[metric].Value)
	}
	return out
}

// failedFrac is the share of failed checks over a set's runs.
func failedFrac(recs []record) float64 {
	attempted, failed := 0, 0
	for _, r := range recs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// findingsDiffer names the seeds at which the two sets found different
// numbers of deadlocks; findings are a pure function of the seed, so on
// one commit they must agree.
func findingsDiffer(parent, change []record) string {
	at := map[int64]float64{}
	for _, r := range parent {
		at[r.Seed] = r.Result.Metrics["findings"].Value
	}
	var seeds []int64
	for _, r := range change {
		if f, ok := at[r.Seed]; ok && f != r.Result.Metrics["findings"].Value {
			seeds = append(seeds, r.Seed)
		}
	}
	if len(seeds) == 0 {
		return ""
	}
	return fmt.Sprintf("findings differ at seeds %v", seeds)
}
