package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestTracedCheckMatchesFacade pins the traced path to the untraced one:
// for every program of every workload at seed 1, the check decomposed
// into layer calls yields the facade check's verdict (cycle keys,
// MultiReport totals, witness bytes), so the per-layer numbers describe
// the same work. The policy and observer replays behind the per-event
// costs must also repeat the recorded executions' steps and outcomes.
func TestTracedCheckMatchesFacade(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			progs, _, err := setUp(w, quickOptions(), time.Now())
			if err != nil {
				t.Fatal(err)
			}
			tr, ls := newTracer(), &layerStats{}
			for _, p := range progs {
				if p.failure != "" {
					t.Fatalf("%s: %s", p.spec.name, p.failure)
				}
				v, err := tracedCheck(p, tr, ls, true)
				if err != nil {
					t.Fatalf("%s: %v", p.spec.name, err)
				}
				if !reflect.DeepEqual(v, p.ref) {
					t.Errorf("%s: traced verdict\n%+v\nfacade verdict\n%+v", p.spec.name, v, p.ref)
				}
			}
			pc := policyCost(ls.cases)
			observerCost(ls.cases)
			for _, p := range progs {
				if p.failure != "" {
					t.Errorf("%s: %s", p.spec.name, p.failure)
				}
			}
			if w.name != "blocking" && pc.replays == 0 {
				t.Error("no Phase II execution was replayed")
			}
			for i, s := range tr.spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d %+v: unclosed or out of order", i, s)
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "check", Start: 0, End: 100, Parent: -1},
		{Name: "analysis.observe", Start: 10, End: 40, Parent: 0},
		{Name: "campaign.confirm", Start: 40, End: 90, Parent: 0},
		{Name: "obs.capture", Start: 60, End: 70, Parent: 2},
		{Name: "obs.capture", Start: 75, End: 80, Parent: 2},
	}
	got := selfTimes(spans)
	for name, want := range map[string]spanTotal{
		"check":            {1, 20},
		"analysis.observe": {1, 30},
		"campaign.confirm": {1, 35},
		"obs.capture":      {2, 15},
	} {
		if g := got[name]; g == nil || *g != want {
			t.Errorf("%s: %+v, want %+v", name, g, want)
		}
	}
}

// TestTraceRunEmitsEveryLayerMetric runs the traced run, probes
// included, of the cheapest mutex workload and of the blocking one,
// which leaves most layers at 0: each must report exactly the per-layer
// metrics BENCHMARK.json declares.
func TestTraceRunEmitsEveryLayerMetric(t *testing.T) {
	_, perLayer := definedMetrics(t)
	for _, name := range []string{"paper-go", "blocking"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			res, spans, failures, err := traceRun(w, quickOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(failures) > 0 {
				t.Errorf("correct=%t: %v", res.Correct, failures)
			}
			if len(spans) == 0 {
				t.Error("no spans recorded")
			}
			checkMetrics(t, res.Metrics, perLayer)
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not encode: %v", err)
			}
		})
	}
}
