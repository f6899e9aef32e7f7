package campaign_test

// Pooled-reuse determinism at the campaign level: the engine hands each
// worker a pooled runner that recycles scheduler and policy shells
// across all the seeds that worker claims, and campaigns run
// back-to-back rebuild their pools from whatever the Go allocator hands
// back. Neither form of reuse may be observable in any merged summary.

import (
	"reflect"
	"testing"

	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// TestConfirmBackToBack runs the same reproduction campaign twice in a
// row at several parallelism settings and checks every summary against
// the serial reference: shell recycling inside a campaign and allocator
// reuse between campaigns must both be invisible.
func TestConfirmBackToBack(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("lists workload missing")
	}
	p1 := phase1Cycles(t, w)
	if len(p1.Cycles) == 0 {
		t.Fatal("lists produced no cycles")
	}
	cfg := harness.DefaultVariant().Fuzzer
	cyc := p1.Cycles[0]
	ref := confirmOne(w.Prog, cyc, cfg, 48, campaign.Options{Parallelism: 1})
	for _, par := range []int{1, 2, 4} {
		for round := 0; round < 2; round++ {
			got := confirmOne(w.Prog, cyc, cfg, 48, campaign.Options{Parallelism: par})
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("parallelism %d round %d diverged from serial reference:\nref %+v\ngot %+v",
					par, round, ref, got)
			}
		}
	}
}

// TestConfirmCyclesBackToBack is the multi-cycle version: two identical
// campaigns in a row, each compared to the first serial run, at
// parallelism 1 and 3.
func TestConfirmCyclesBackToBack(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("lists workload missing")
	}
	p1 := cappedCycles(t, w, 4)
	if len(p1.Cycles) < 2 {
		t.Skipf("want >= 2 cycles, got %d", len(p1.Cycles))
	}
	cfg := harness.DefaultVariant().Fuzzer
	ref := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, 40, 0, campaign.Options{Parallelism: 1})
	for _, par := range []int{1, 3} {
		for round := 0; round < 2; round++ {
			got := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, 40, 0, campaign.Options{Parallelism: par})
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("parallelism %d round %d diverged from serial reference", par, round)
			}
		}
	}
}

// TestRunWorkersSharedRunner drives two whole campaigns through the
// *same* pooled runner — the strongest statement of the reuse contract:
// a shell that has already executed one full campaign must replay a
// second one with results identical to a completely fresh engine.
func TestRunWorkersSharedRunner(t *testing.T) {
	w, ok := workloads.ByName("dbcp")
	if !ok {
		t.Fatal("dbcp workload missing")
	}
	p1 := phase1Cycles(t, w)
	if len(p1.Cycles) == 0 {
		t.Fatal("dbcp produced no cycles")
	}
	cfg := harness.DefaultVariant().Fuzzer
	cyc := p1.Cycles[0]
	ref := confirmOne(w.Prog, cyc, cfg, 32, campaign.Options{Parallelism: 1})

	runner := fuzzer.NewRunner()
	for round := 0; round < 2; round++ {
		sum := campaign.Summary{}
		sum.Runs = campaign.RunWorkers(32, campaign.Options{Parallelism: 1},
			func() func(seed int) *fuzzer.RunResult {
				return func(seed int) *fuzzer.RunResult {
					return runner.Run(w.Prog, cyc, cfg, int64(seed), 0)
				}
			},
			func(r *fuzzer.RunResult) bool { return r.Reproduced },
			func(seed int, r *fuzzer.RunResult) {
				if r.Result.Outcome == sched.Deadlock {
					sum.Deadlocked++
				}
				if r.Reproduced {
					sum.Reproduced++
					if sum.Example == nil {
						sum.Example = r.Result.Deadlock
						sum.ExampleSeed = int64(seed)
					}
				}
				sum.Thrashes += r.Stats.Thrashes
				sum.Yields += r.Stats.Yields
				sum.Steps += r.Result.Steps
			})
		if !reflect.DeepEqual(ref, sum) {
			t.Errorf("round %d: shared-runner campaign diverged from fresh reference:\nref %+v\ngot %+v",
				round, ref, sum)
		}
	}
}
