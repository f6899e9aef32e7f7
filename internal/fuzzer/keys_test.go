package fuzzer_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// sprintfDeadlockKey and sprintfCycleKey are the fmt renderings the
// append-based keys replaced, kept as the reference.
func sprintfDeadlockKey(dl *sched.DeadlockInfo, cfg fuzzer.Config) string {
	if dl == nil {
		return ""
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	parts := make([]string, 0, len(dl.Edges))
	for _, e := range dl.Edges {
		key := fmt.Sprintf("%s/%s", cfg.Abstraction.Of(e.ThreadObj, cfg.K), cfg.Abstraction.Of(e.Want, cfg.K))
		if cfg.UseContext {
			key += "/" + e.Context.Key()
		}
		parts = append(parts, key)
	}
	sort.Strings(parts)
	return strings.Join(parts, "~")
}

func sprintfCycleKey(cycle *igoodlock.Cycle, cfg fuzzer.Config) string {
	parts := make([]string, 0, len(cycle.Components))
	for _, c := range cycle.Components {
		key := fmt.Sprintf("%s/%s", c.ThreadAbs, c.LockAbs)
		if cfg.UseContext {
			key += "/" + c.Context.Key()
		}
		parts = append(parts, key)
	}
	sort.Strings(parts)
	return strings.Join(parts, "~")
}

// TestKeysMatchSprintfReference renders every deadlock the workloads
// reach — observed in Phase I and confirmed in short Phase II campaigns
// under each of the five variants — and every candidate cycle, and
// requires DeadlockKey, CycleKey and the pooled Runner's cached match
// to agree with the fmt reference byte for byte.
func TestKeysMatchSprintfReference(t *testing.T) {
	var deadlocks, cycles int
	for _, w := range workloads.All() {
		for _, v := range harness.Variants() {
			p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
			if err != nil {
				continue
			}
			check := func(dl *sched.DeadlockInfo, cfg fuzzer.Config) {
				deadlocks++
				if got, want := fuzzer.DeadlockKey(dl, cfg), sprintfDeadlockKey(dl, cfg); got != want {
					t.Fatalf("%s/%s: DeadlockKey %q, reference %q", w.Name, v.Name, got, want)
				}
			}
			for _, dl := range p1.ObservedDeadlocks {
				check(dl, v.Fuzzer)
			}
			r := fuzzer.NewRunner()
			for _, cyc := range p1.Cycles {
				cycles++
				if got, want := fuzzer.CycleKey(cyc, v.Fuzzer), sprintfCycleKey(cyc, v.Fuzzer); got != want {
					t.Fatalf("%s/%s: CycleKey %q, reference %q", w.Name, v.Name, got, want)
				}
				for seed := int64(0); seed < 3; seed++ {
					res := r.Run(w.Prog, cyc, v.Fuzzer, seed, 0)
					if res.Result.Outcome != sched.Deadlock {
						continue
					}
					dl := res.Result.Deadlock
					check(dl, v.Fuzzer)
					want := len(dl.Edges) == len(cyc.Components) &&
						sprintfDeadlockKey(dl, v.Fuzzer) == sprintfCycleKey(cyc, v.Fuzzer)
					if res.Reproduced != want {
						t.Fatalf("%s/%s seed %d: Runner reproduced=%v, reference %v", w.Name, v.Name, seed, res.Reproduced, want)
					}
				}
			}
		}
	}
	if deadlocks == 0 || cycles == 0 {
		t.Fatalf("checked %d deadlocks and %d cycles", deadlocks, cycles)
	}
	t.Logf("checked %d deadlock keys and %d cycle keys", deadlocks, cycles)
}
