package campaign_test

// Multi-cycle campaign contract: per-cycle summaries identical to
// one-cycle campaigns over the same scheduler seeds, the total
// execution budget near ~runs instead of cycles × runs, cross-crediting
// of deadlocks reached while aiming at another candidate, and the same
// parallel ≡ serial byte-identity the single-cycle engine guarantees.

import (
	"reflect"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// cappedCycles runs Phase I and caps the cycle list.
func cappedCycles(t *testing.T, w workloads.Workload, max int) *analysis.CampaignObservation {
	t.Helper()
	p1 := phase1Cycles(t, w)
	if len(p1.Cycles) > max {
		p1.Cycles = p1.Cycles[:max]
	}
	return p1
}

// TestConfirmCyclesMatchesPerCycleCampaigns is the equivalence
// regression: when the budget divides evenly (runs = N × cycles), every
// cycle's slice of the multi-cycle campaign must be *identical* to an
// N-run single-cycle campaign — the seed split guarantees the targeted
// runs are the same executions.
func TestConfirmCyclesMatchesPerCycleCampaigns(t *testing.T) {
	const perCycle = 16
	cfg := harness.DefaultVariant().Fuzzer
	covered := 0
	for _, name := range []string{"lists", "maps", "jigsaw"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		p1 := cappedCycles(t, w, 3)
		c := len(p1.Cycles)
		if c == 0 {
			continue
		}
		covered++
		multi := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, perCycle*c, 0, campaign.Options{})
		if multi.Executions != perCycle*c {
			t.Errorf("%s: executions = %d, want %d", name, multi.Executions, perCycle*c)
		}
		for i, cyc := range p1.Cycles {
			single := confirmOne(w.Prog, cyc, cfg, perCycle, campaign.Options{})
			if !reflect.DeepEqual(single, multi.Cycles[i].Summary) {
				t.Errorf("%s cycle %d: multi-cycle slice diverged from single-cycle campaign:\nsingle %+v\nmulti  %+v",
					name, i, single, multi.Cycles[i].Summary)
			}
		}
	}
	if covered < 2 {
		t.Fatalf("only %d workloads had cycles; the regression needs at least 2", covered)
	}
}

// TestConfirmCyclesExecutionBudget pins the cost collapse: the whole
// campaign consumes at most runs + cycles - 1 executions (the
// round-robin split rounds each target's share up), never
// cycles × runs, and the per-cycle slices account for every execution.
func TestConfirmCyclesExecutionBudget(t *testing.T) {
	w, _ := workloads.ByName("lists")
	p1 := cappedCycles(t, w, 4)
	c := len(p1.Cycles)
	if c < 2 {
		t.Fatalf("lists reported %d cycles; need at least 2", c)
	}
	cfg := harness.DefaultVariant().Fuzzer
	for _, runs := range []int{1, 7, 40} {
		multi := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, runs, 0, campaign.Options{})
		if multi.Executions > runs+c-1 {
			t.Errorf("runs=%d cycles=%d: %d executions exceeds runs+cycles-1", runs, c, multi.Executions)
		}
		total := 0
		for i := range multi.Cycles {
			total += multi.Cycles[i].Runs
		}
		if total != multi.Executions {
			t.Errorf("runs=%d: per-cycle slices sum to %d of %d executions", runs, total, multi.Executions)
		}
	}
}

// TestConfirmCyclesConfirmsSameSetAsPerCycle is the acceptance check:
// on the Collections lists workload, a multi-cycle campaign with a
// total budget of `runs` confirms the same cycle set the per-cycle path
// confirms spending cycles × runs.
func TestConfirmCyclesConfirmsSameSetAsPerCycle(t *testing.T) {
	const runs = 40
	w, _ := workloads.ByName("lists")
	p1 := phase1Cycles(t, w)
	if len(p1.Cycles) < 2 {
		t.Fatalf("lists reported %d cycles; need at least 2", len(p1.Cycles))
	}
	cfg := harness.DefaultVariant().Fuzzer
	multi := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, runs, 0, campaign.Options{})
	for i, cyc := range p1.Cycles {
		single := confirmOne(w.Prog, cyc, cfg, runs, campaign.Options{})
		if single.Reproduced > 0 != multi.Cycles[i].Confirmed() {
			t.Errorf("cycle %d: per-cycle confirmed=%v (%d/%d), multi confirmed=%v (%d reproduced + %d cross of %d)",
				i, single.Reproduced > 0, single.Reproduced, single.Runs,
				multi.Cycles[i].Confirmed(), multi.Cycles[i].Reproduced,
				multi.Cycles[i].CrossMatches, multi.Cycles[i].Runs)
		}
	}
}

// TestConfirmCyclesParallelismInvariant extends the byte-identity
// guarantee to multi-cycle campaigns: the full MultiSummary must be
// identical at every worker count.
func TestConfirmCyclesParallelismInvariant(t *testing.T) {
	cfg := harness.DefaultVariant().Fuzzer
	for _, name := range []string{"lists", "jigsaw"} {
		w, _ := workloads.ByName(name)
		p1 := cappedCycles(t, w, 3)
		if len(p1.Cycles) == 0 {
			t.Fatalf("%s reported no cycles", name)
		}
		serial := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, 48, 0, campaign.Options{Parallelism: 1})
		for _, par := range []int{2, 0} {
			parallel := campaign.ConfirmCycles(w.Prog, p1.Cycles, cfg, 48, 0, campaign.Options{Parallelism: par})
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s: parallelism %d diverged:\nserial   %+v\nparallel %+v", name, par, serial, parallel)
			}
		}
	}
}

// hotInversion is a lock inversion with no timing skew: the plain
// random scheduler stumbles into its deadlock on many seeds, which is
// exactly what cross-crediting should capture.
func hotInversion(c *sched.Ctx) {
	o1 := c.New("Object", "hot:1")
	o2 := c.New("Object", "hot:2")
	t1 := c.Spawn("T1", nil, "hot:5", func(c *sched.Ctx) {
		c.Sync(o1, "hot:3", func() {
			c.Sync(o2, "hot:4", func() {})
		})
	})
	t2 := c.Spawn("T2", nil, "hot:6", func(c *sched.Ctx) {
		c.Sync(o2, "hot:3b", func() {
			c.Sync(o1, "hot:4b", func() {})
		})
	})
	c.Join(t1, "hot:7")
	c.Join(t2, "hot:7")
}

// TestConfirmCyclesCrossCredit checks the crediting rules with a
// candidate list containing the program's real cycle plus a foreign
// cycle from a different program. Runs targeted at the foreign cycle
// never pause (nothing matches), so they behave exactly like plain
// random runs — and the hot inversion deadlocks under plain random
// scheduling often enough that some of those deadlocks must cross-credit
// the real cycle. The foreign cycle itself can never be confirmed.
func TestConfirmCyclesCrossCredit(t *testing.T) {
	v := harness.DefaultVariant()
	p1 := observeOnce(t, hotInversion)
	if len(p1.Cycles) != 1 {
		t.Fatalf("hot inversion reported %d cycles", len(p1.Cycles))
	}
	realCyc := p1.Cycles[0]

	w, _ := workloads.ByName("lists")
	foreignP1 := phase1Cycles(t, w)
	if len(foreignP1.Cycles) == 0 {
		t.Fatal("lists reported no cycles")
	}
	foreign := foreignP1.Cycles[0]

	// 80 runs → 40 targeted at each candidate. The foreign-targeted
	// half replays plain-random seeds 0..39, which are known to hit the
	// inversion (see TestRunImmuneSuppressesConfirmedDeadlock).
	multi := campaign.ConfirmCycles(hotInversion, []*igoodlock.Cycle{realCyc, foreign}, v.Fuzzer, 80, 0, campaign.Options{})
	rs, fs := &multi.Cycles[0], &multi.Cycles[1]
	if !rs.Confirmed() || rs.Reproduced == 0 {
		t.Errorf("real cycle not reproduced: %+v", rs)
	}
	if rs.CrossMatches == 0 {
		t.Errorf("foreign-targeted deadlocks never cross-credited the real cycle: %+v", rs)
	}
	if rs.CrossExample == nil {
		t.Error("cross-credit carries no witness")
	}
	if fs.Reproduced != 0 || fs.CrossMatches != 0 || fs.Confirmed() {
		t.Errorf("foreign cycle wrongly credited: %+v", fs)
	}
	if multi.Unmatched != 0 {
		t.Errorf("%d deadlocks matched no candidate; all should match the real cycle", multi.Unmatched)
	}
}
