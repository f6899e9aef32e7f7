package analysis_test

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/workloads"
)

// cycleKeys reduces a cycle list to its dedup keys, in report order.
func cycleKeys(cycles []*igoodlock.Cycle) []string {
	keys := make([]string, len(cycles))
	for i, c := range cycles {
		keys[i] = c.Key()
	}
	return keys
}

// observeSingleGolden pins single-run observation. It was captured from
// the retired single-run Observe entry point, so ObserveMany with Runs=1
// is held to exactly what that path reported; regenerate with
//
//	DLFUZZ_UPDATE_GOLDEN=1 go test -run TestObserveManySingleRunMatchesObserve ./internal/analysis
//
// only when a deliberate change to observation moves the report.
const observeSingleGolden = "../../testdata/golden/observe_single.txt"

// renderObservation prints every deterministic field of one
// observation: scalars, per-kind event counts, cycle keys and the
// witnessed deadlocks.
func renderObservation(obs *analysis.Observation, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "err %v\n", err)
	}
	fmt.Fprintf(&b, "seed=%d attempts=%d deps=%d steps=%d events=%d\n",
		obs.Seed, obs.Attempts, obs.Deps, obs.Steps, obs.Events)
	if obs.Stats != nil {
		fmt.Fprintf(&b, "bykind %v\n", obs.Stats.ByKind)
	}
	for _, c := range obs.Cycles {
		fmt.Fprintf(&b, "cycle %s\n", c.Key())
	}
	for _, c := range obs.FalsePositives {
		fmt.Fprintf(&b, "fp %s\n", c.Key())
	}
	for _, d := range obs.ObservedDeadlocks {
		fmt.Fprintf(&b, "observed %s\n", d)
	}
	return b.String()
}

// TestObserveManySingleRunMatchesObserve pins the campaign's degenerate
// case: with Runs=1 the merged observation must reproduce the golden
// single-run report byte for byte on every workload — same completing
// seed, same relation size, same cycles in the same order — and keep
// single-run campaign bookkeeping.
func TestObserveManySingleRunMatchesObserve(t *testing.T) {
	update := os.Getenv("DLFUZZ_UPDATE_GOLDEN") != ""
	golden := map[string]string{}
	if !update {
		raw, err := os.ReadFile(observeSingleGolden)
		if err != nil {
			t.Fatalf("missing golden (run with DLFUZZ_UPDATE_GOLDEN=1 to capture): %v", err)
		}
		for _, sec := range strings.Split(string(raw), "== ")[1:] {
			name, body, _ := strings.Cut(sec, " ==\n")
			golden[name] = body
		}
	}
	cfg := predict.DefaultConfig()
	var out strings.Builder
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			got, err := analysis.ObserveMany(w.Prog, cfg, analysis.CampaignOptions{Runs: 1, Seed: 1})
			body := renderObservation(&got.Observation, err)
			fmt.Fprintf(&out, "== %s ==\n%s", w.Name, body)
			if !update && body != golden[w.Name] {
				t.Errorf("diverged from %s:\ngot:\n%swant:\n%s", observeSingleGolden, body, golden[w.Name])
			}
			if err == nil && (got.Runs != 1 || got.Completed != 1 || got.RawDeps != got.Deps) {
				t.Errorf("campaign bookkeeping off for a single run: %+v", got)
			}
		})
	}
	if update {
		if err := os.WriteFile(observeSingleGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveManyParallelismInvariant is the campaign's differential
// test: for fixed options, the merged observation must be deeply
// identical at observation parallelism 1 and 4 and at closure
// parallelism 1 and 4, on every workload.
func TestObserveManyParallelismInvariant(t *testing.T) {
	cfg := predict.DefaultConfig()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			base := analysis.CampaignOptions{Runs: 4, Seed: 1, Parallelism: 1, ClosureParallelism: 1}
			want, wantErr := analysis.ObserveMany(w.Prog, cfg, base)
			for _, opts := range []analysis.CampaignOptions{
				{Runs: 4, Seed: 1, Parallelism: 4, ClosureParallelism: 1},
				{Runs: 4, Seed: 1, Parallelism: 4, ClosureParallelism: 4},
				{Runs: 4, Seed: 1, Parallelism: 2, ClosureParallelism: 3},
			} {
				got, gotErr := analysis.ObserveMany(w.Prog, cfg, opts)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("opts %+v: err = %v, serial err = %v", opts, gotErr, wantErr)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("opts %+v: campaign observation diverged from serial", opts)
				}
			}
		})
	}
}

// TestObserveManySupersetOfEachRun checks the property the merged
// relation design exists for: the campaign's cycle set contains every
// cycle any constituent run finds on its own. Each run's solo result is
// computed through a single-run ObserveMany at the campaign's per-run
// base seed, so the comparison is against genuinely independent analyses.
func TestObserveManySupersetOfEachRun(t *testing.T) {
	cfg := predict.DefaultConfig()
	const runs = 4
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			got, err := analysis.ObserveMany(w.Prog, cfg, analysis.CampaignOptions{Runs: runs, Seed: 1})
			if err != nil {
				t.Skipf("campaign did not complete: %v", err)
			}
			merged := make(map[string]bool)
			for _, c := range got.Cycles {
				merged[c.Key()] = true
			}
			mergedAll := make(map[string]bool)
			for _, c := range append(got.Cycles, got.FalsePositives...) {
				mergedAll[c.Key()] = true
			}
			for i := 0; i < runs; i++ {
				solo, err := analysis.ObserveMany(w.Prog, cfg, analysis.CampaignOptions{Runs: 1, Seed: 1 + int64(i)*100})
				if err != nil {
					continue
				}
				if got.PerRun[i].Cycles != len(solo.Cycles) {
					t.Errorf("run %d: campaign counted %d cycles, solo run found %d",
						i, got.PerRun[i].Cycles, len(solo.Cycles))
				}
				for _, c := range solo.Cycles {
					if !merged[c.Key()] {
						t.Errorf("run %d: plausible cycle lost in merge: %s", i, c.Key())
					}
				}
				for _, c := range append(solo.Cycles, solo.FalsePositives...) {
					if !mergedAll[c.Key()] {
						t.Errorf("run %d: candidate cycle lost in merge: %s", i, c.Key())
					}
				}
			}
		})
	}
}

// TestObserveManyBookkeeping checks the dedup and saturation stats on a
// workload with cycles: raw >= merged relation size, the saturation
// curve's total equals the number of distinct per-run cycle keys, and
// per-run stats line up with the runs.
func TestObserveManyBookkeeping(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Skip("lists workload absent")
	}
	const runs = 6
	got, err := analysis.ObserveMany(w.Prog, predict.DefaultConfig(),
		analysis.CampaignOptions{Runs: runs, Seed: 1})
	if err != nil {
		t.Fatalf("ObserveMany: %v", err)
	}
	if got.Runs != runs || len(got.PerRun) != runs {
		t.Fatalf("runs = %d, per-run entries = %d, want %d", got.Runs, len(got.PerRun), runs)
	}
	if got.Completed == 0 || got.Completed > runs {
		t.Fatalf("completed = %d of %d", got.Completed, runs)
	}
	if got.RawDeps < got.Deps {
		t.Errorf("raw relation (%d) smaller than merged (%d)", got.RawDeps, got.Deps)
	}
	if len(got.Cycles) == 0 {
		t.Errorf("campaign found no cycles on lists")
	}
	newTotal, attempts := 0, 0
	for i, rs := range got.PerRun {
		newTotal += rs.NewCycles
		attempts += rs.Attempts
		if rs.NewCycles > rs.Cycles {
			t.Errorf("run %d: %d new of %d cycles", i, rs.NewCycles, rs.Cycles)
		}
		if rs.Completed && rs.Deps == 0 {
			t.Errorf("run %d: completed with an empty relation", i)
		}
	}
	if attempts != got.Attempts {
		t.Errorf("per-run attempts sum to %d, campaign says %d", attempts, got.Attempts)
	}
	if newTotal == 0 {
		t.Errorf("saturation curve empty: no run contributed a new cycle")
	}
}

// TestObserveManyNoCompletedRun checks the failure path: a program that
// always deadlocks exhausts every run's budget, the campaign reports
// ErrNoCompletedRun, and the witnessed deadlocks survive.
func TestObserveManyNoCompletedRun(t *testing.T) {
	got, err := analysis.ObserveMany(certainDeadlock, predict.Config{K: 10},
		analysis.CampaignOptions{Runs: 2, Seed: 1})
	if !errors.Is(err, analysis.ErrNoCompletedRun) {
		t.Fatalf("err = %v", err)
	}
	if got.Completed != 0 || len(got.PerRun) != 2 {
		t.Fatalf("partial campaign: %+v", got)
	}
	if got.Attempts != 200 {
		t.Errorf("attempts = %d, want both runs' full budgets", got.Attempts)
	}
	if len(got.ObservedDeadlocks) != 200 {
		t.Errorf("observed %d deadlocks in 200 deadlocking attempts", len(got.ObservedDeadlocks))
	}
	if len(got.Cycles) != 0 || got.Deps != 0 {
		t.Errorf("failed campaign claims analysis results: %+v", got)
	}
}
