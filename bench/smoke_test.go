package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// definedMetrics reads the metrics BENCHMARK.json declares.
func definedMetrics(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def.EndToEnd, def.PerLayer
}

// quickOptions make a run of one set-up and one pass, with no tail
// requirement.
func quickOptions() runOptions {
	return runOptions{root: "..", seed: 1, setups: 1}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics fails t unless got holds exactly the defined metrics,
// each with its defined unit.
func checkMetrics(t *testing.T, got map[string]metric, defined []metricSpec) {
	t.Helper()
	if len(got) != len(defined) {
		t.Errorf("%d metrics, BENCHMARK.json defines %d", len(got), len(defined))
	}
	for _, m := range defined {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
	}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, _ := definedMetrics(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			res, _, failures, err := measure(w, quickOptions(), time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(failures) > 0 {
				t.Errorf("correct=%t failed=%d/%d: %v", res.Correct, res.Failed, res.Attempted, failures)
			}
			checkMetrics(t, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %g, want a positive value", name, m.Value)
				}
			}
		})
	}
}

// TestSmokeWrongVerdictCountsAsFailed injects a wrong answer into one
// program of a workload: all of that program's checks, and only those,
// count as failed.
func TestSmokeWrongVerdictCountsAsFailed(t *testing.T) {
	w, _ := workloadByName("paper-go")
	load := w.load
	w.load = func(root string, seed int64) ([]*spec, error) {
		specs, err := load(root, seed)
		if err == nil {
			specs[4].expect = func(*verdict) error { return errors.New("injected wrong verdict") }
		}
		return specs, err
	}
	res, _, failures, err := measure(w, quickOptions(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 10 {
		t.Errorf("correct=%t failed=%d attempted=%d, want false, 1, 10", res.Correct, res.Failed, res.Attempted)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "injected wrong verdict") {
		t.Errorf("failures = %q", failures)
	}

	p := &program{spec: &spec{name: "p"}, ref: &verdict{execs: 3}}
	p.verify(&verdict{execs: 3}, nil, 0)
	p.verify(&verdict{execs: 4}, nil, 1)
	p.verify(&verdict{execs: 3}, nil, 2)
	if attempted, failed, _ := tally([]*program{p}); attempted != 3 || failed != 3 {
		t.Errorf("a program whose pass-2 verdict differs: %d of %d checks failed, want 3 of 3", failed, attempted)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-go", "--trace", "2"},
		{"--workload", "paper-go", "extra"},
		{"compare", "only-one-dir"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, time.Now()); code != 2 || out.Len() > 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
